#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace econcast::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

std::size_t Table::add_row() {
  rows_.emplace_back();
  return rows_.size() - 1;
}

void Table::add_cell(std::string text) {
  if (rows_.empty()) add_row();
  if (rows_.back().size() >= headers_.size())
    throw std::logic_error("Table row has more cells than headers");
  rows_.back().push_back(std::move(text));
}

void Table::add_cell(double value, int precision) {
  add_cell(format_double(value, precision));
}

void Table::add_cell(std::int64_t value) { add_cell(std::to_string(value)); }

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::logic_error("Table row width mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  if (!title.empty()) os << "== " << title << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      os << "  " << std::left << std::setw(static_cast<int>(widths[c])) << cell;
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 2;
  for (const auto w : widths) total += w + 2;
  os << "  " << std::string(total - 2, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string format_double(double value, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << value;
  return ss.str();
}

std::string format_sci(double value, int precision) {
  std::ostringstream ss;
  ss << std::scientific << std::setprecision(precision) << value;
  return ss.str();
}

}  // namespace econcast::util
