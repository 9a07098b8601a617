// Seeded violation: ad-hoc threading outside src/exec.
#include <future>
#include <pthread.h>
#include <thread>

void* no_op(void*) { return nullptr; }

void spawn_everything() {
  std::thread worker([] {});
  auto task = std::async([] { return 1; });
  pthread_t raw;
  pthread_create(&raw, nullptr, &no_op, nullptr);
  pthread_join(raw, nullptr);
  worker.join();
  task.get();
}
