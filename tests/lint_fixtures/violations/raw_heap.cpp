// Seeded violation: a private event heap outside src/sim, with its own
// tie-break for equal times.
#include <algorithm>
#include <queue>
#include <vector>

struct Ev {
  double time;
  bool operator<(const Ev& o) const { return time > o.time; }
};

double drain(std::vector<Ev> events) {
  std::priority_queue<Ev> q;
  std::make_heap(events.begin(), events.end());
  std::pop_heap(events.begin(), events.end());
  events.back().time += 1.0;
  std::push_heap(events.begin(), events.end());
  q.push(events.front());
  return q.top().time;
}
