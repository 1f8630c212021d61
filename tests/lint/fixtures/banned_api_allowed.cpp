// Fixture twin: the same constructs carrying allow(banned-api)
// justifications — and the comment/string forms that must never fire.
#include <chrono>
#include <cmath>
#include <random>

// Mentioning lgamma, rand, random_device, or system_clock in a comment is
// not a use. Neither is a string literal:
const char* kDoc = "std::lgamma and rand() and system_clock in a string";

double wall_seconds() {
  // odtn-lint: allow(banned-api) — wall-clock site for this fixture.
  auto s = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(s.time_since_epoch()).count();
}

unsigned seeded_entropy() {
  // odtn-lint: allow(banned-api) — fixture: documenting the suppression form.
  std::random_device rd;
  return rd();
}
