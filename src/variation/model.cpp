#include "variation/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace statsizer::variation {

VariationModel::VariationModel(VariationParams params) : params_(params) {
  if (params_.proportional_coeff < 0.0 || params_.random_floor_ps < 0.0) {
    throw std::invalid_argument("VariationModel: negative sigma coefficients");
  }
  if (params_.global_fraction < 0.0 || params_.global_fraction > 1.0) {
    throw std::invalid_argument("VariationModel: global_fraction must be in [0,1]");
  }
}

double VariationModel::systematic_sigma_ps(double delay_ps, double drive) const {
  return params_.proportional_coeff * delay_ps / std::pow(drive, params_.size_exponent);
}

double VariationModel::sigma_ps(double delay_ps, double drive) const {
  const double s = systematic_sigma_ps(delay_ps, drive);
  const double r = params_.random_floor_ps;
  return std::sqrt(s * s + r * r);
}

double VariationModel::mean_to_sigma_coeff(double drive) const {
  return params_.proportional_coeff / std::pow(drive, params_.size_exponent);
}

double VariationModel::delay_from_normals(double delay_ps, double drive, double z_global,
                                          double z_local, double z_floor) const {
  const double sys = systematic_sigma_ps(delay_ps, drive);
  const double shared = std::sqrt(params_.global_fraction) * sys;
  const double local = std::sqrt(1.0 - params_.global_fraction) * sys;
  const double sample =
      delay_ps + shared * z_global + local * z_local + params_.random_floor_ps * z_floor;
  return std::max(sample, params_.min_delay_fraction * delay_ps);
}

double VariationModel::sample_delay_ps(double delay_ps, double drive, double global_z,
                                       util::Rng& rng) const {
  // Two statements: the draw order is part of every sampled result.
  const double z_local = rng.normal();
  const double z_floor = rng.normal();
  return delay_from_normals(delay_ps, drive, global_z, z_local, z_floor);
}

}  // namespace statsizer::variation
