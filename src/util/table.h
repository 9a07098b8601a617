// Console table rendering for the benchmark harnesses: every bench binary
// prints the rows/series of the paper table or figure it regenerates, in a
// uniform, diff-friendly format (also emittable as CSV).
#ifndef ECONCAST_UTIL_TABLE_H
#define ECONCAST_UTIL_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace econcast::util {

/// A simple column-aligned text table. Cells are strings; numeric helpers
/// format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; returns row index.
  std::size_t add_row();

  /// Appends a cell to the last row.
  void add_cell(std::string text);
  void add_cell(double value, int precision = 4);
  void add_cell(std::int64_t value);

  /// Convenience: add a full row at once.
  void add_row(std::vector<std::string> cells);

  /// Renders with aligned columns, header underline, optional title.
  void print(std::ostream& os, const std::string& title = "") const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (fixed notation).
std::string format_double(double value, int precision = 4);

/// Formats as scientific notation with the given precision.
std::string format_sci(double value, int precision = 3);

}  // namespace econcast::util

#endif  // ECONCAST_UTIL_TABLE_H
