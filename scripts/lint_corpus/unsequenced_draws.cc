// Corpus: unsequenced-draws must fire when two Rng draws share one full
// expression (their evaluation order is unspecified), and stay silent on
// one draw per statement, on static factories named like draws, and on
// justified waivers.
#include <algorithm>
#include <cstdint>

namespace util {
struct Rng {
  double normal();
  double uniform();
  std::uint64_t index(std::uint64_t n);
  bool flip(double p);
};
}  // namespace util
struct Pdf {
  static Pdf normal(double mean, double sigma);
};

double two_normals_in_a_sum(util::Rng& rng, double a, double b) {
  return a * rng.normal() + b * rng.normal();  // expect-lint: unsequenced-draws
}

double draws_as_arguments(util::Rng& rng) {
  return std::max(rng.uniform(), rng.uniform());  // expect-lint: unsequenced-draws
}

std::uint64_t mixed_draws_through_pointer(util::Rng* rng) {
  return rng->index(8) + (rng->flip(0.5) ? 1 : 0);  // expect-lint: unsequenced-draws
}

// One draw per statement: the stream order is the statement order.
double sequenced_draws(util::Rng& rng, double a, double b) {
  const double z1 = rng.normal();
  const double z2 = rng.normal();
  return a * z1 + b * z2;
}

// Static factories are not draws.
Pdf two_static_normals() {
  (void)Pdf::normal(0.0, 1.0);
  return Pdf::normal(Pdf::normal(0.0, 1.0), 1.0);
}

double waived_symmetric(util::Rng& rng) {
  // A symmetric fold does not depend on which draw comes first.
  return std::max(rng.normal(), rng.normal());  // lint-ok: unsequenced-draws max is symmetric
}
