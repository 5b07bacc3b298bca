#include "diffusion/sampler.hpp"

#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/parallel/parallel_for.hpp"
#include "common/telemetry/trace.hpp"
#include "nn/arena.hpp"

namespace repro::diffusion {
namespace {

/// Where sampler noise comes from: `rngs` holds one stream shared by
/// every sample or one stream per sample (see sample_stream). Sample b
/// fills its own slice of each draw from its stream, so a shared stream
/// yields the flat element-order draw.
class NoiseSource {
 public:
  NoiseSource(std::span<Rng> rngs, const std::vector<std::size_t>& shape)
      : rngs_(rngs), samples_(shape.empty() ? 0 : shape[0]) {
    if (rngs_.size() != 1 && rngs_.size() != samples_) {
      throw std::invalid_argument(
          "sampler: need one Rng stream, or one per sample");
    }
    for (std::size_t i = 1; i < shape.size(); ++i) stride_ *= shape[i];
  }

  /// Serially draws one sample-strided tensor's worth of standard
  /// normals (drawing stays serial so the stream order never depends on
  /// the thread count; the arithmetic that follows runs on the pool).
  /// The buffer comes from the scratch arena so repeated sampler steps
  /// reuse one allocation.
  nn::TensorArena::Handle draw() {
    nn::TensorArena::Handle noise =
        nn::TensorArena::scratch().acquire(samples_ * stride_);
    float* p = noise.data();
    for (std::size_t b = 0; b < samples_; ++b) {
      Rng& rng = sample_stream(rngs_, b);
      for (std::size_t i = 0; i < stride_; ++i) {
        p[b * stride_ + i] = static_cast<float>(rng.gaussian());
      }
    }
    return noise;
  }

 private:
  std::span<Rng> rngs_;
  std::size_t samples_;
  std::size_t stride_ = 1;
};

nn::Tensor gaussian_tensor(const std::vector<std::size_t>& shape,
                           std::span<Rng> rngs) {
  nn::Tensor x(shape);
  nn::TensorArena::Handle buf = NoiseSource(rngs, shape).draw();
  std::copy(buf.data(), buf.data() + x.size(), x.data());
  return x;
}

constexpr std::size_t kStepGrain = 4096;  // elementwise ops per chunk

/// One DDPM ancestral update from timestep `t`.
void ddpm_step(nn::Tensor& x, const nn::Tensor& eps,
               const NoiseSchedule& schedule, std::size_t t,
               NoiseSource& source) {
  REPRO_REQUIRE(eps.size() == x.size(),
                "ddpm_step: eps_fn returned a tensor of the wrong size");
  const float beta = schedule.beta(t);
  const float alpha = schedule.alpha(t);
  const float coef = beta / schedule.sqrt_one_minus_alpha_bar(t);
  const float inv_sqrt_alpha = 1.0f / std::sqrt(alpha);
  const float sigma = std::sqrt(schedule.posterior_variance(t));
  nn::TensorArena::Handle noise;
  if (t > 0) noise = source.draw();
  const float* np = noise.data();
  parallel::parallel_for(
      0, x.size(), kStepGrain, [&](std::size_t cb, std::size_t ce) {
        for (std::size_t i = cb; i < ce; ++i) {
          float mean = inv_sqrt_alpha * (x[i] - coef * eps[i]);
          if (t > 0) {
            mean += sigma * np[i];
          }
          x[i] = mean;
        }
      });
}

/// Decreasing timestep subsequence from `t0` to 0 with `steps` entries.
std::vector<std::size_t> ddim_taus(std::size_t t0, std::size_t steps) {
  std::vector<std::size_t> taus(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    taus[i] = t0 * (steps - 1 - i) / std::max<std::size_t>(steps - 1, 1);
  }
  if (steps == 1) taus[0] = t0;
  REPRO_ENSURE(taus.front() == t0 && (steps == 1 || taus.back() == 0),
               "ddim_taus: subsequence must start at t0 and end at 0");
  return taus;
}

/// One DDIM update from abar_t to abar_prev.
void ddim_step(nn::Tensor& x, const nn::Tensor& eps, float abar_t,
               float abar_prev, float eta, bool last, NoiseSource& source) {
  REPRO_REQUIRE(eps.size() == x.size(),
                "ddim_step: eps_fn returned a tensor of the wrong size");
  REPRO_REQUIRE(abar_t > 0.0f && abar_prev >= abar_t,
                "ddim_step: alpha_bar must be positive and non-increasing in t");
  const float sqrt_abar_t = std::sqrt(abar_t);
  const float sqrt_1m_t = std::sqrt(1.0f - abar_t);
  // sigma_t per Song et al. eq. 16.
  const float sigma = eta *
                      std::sqrt((1.0f - abar_prev) / (1.0f - abar_t)) *
                      std::sqrt(1.0f - abar_t / abar_prev);
  const float dir_coef =
      std::sqrt(std::max(1.0f - abar_prev - sigma * sigma, 0.0f));
  const float sqrt_abar_prev = std::sqrt(abar_prev);
  const bool noisy = !last && sigma > 0.0f;
  nn::TensorArena::Handle noise;
  if (noisy) noise = source.draw();
  const float* np = noise.data();
  parallel::parallel_for(
      0, x.size(), kStepGrain, [&](std::size_t cb, std::size_t ce) {
        for (std::size_t j = cb; j < ce; ++j) {
          const float x0 = (x[j] - sqrt_1m_t * eps[j]) / sqrt_abar_t;
          float next = sqrt_abar_prev * x0 + dir_coef * eps[j];
          if (noisy) {
            next += sigma * np[j];
          }
          x[j] = next;
        }
      });
}

}  // namespace

std::vector<std::size_t> ddim_tau_schedule(std::size_t t0, std::size_t steps) {
  return ddim_taus(t0, steps);
}

nn::Tensor ddpm_sample_from(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                            nn::Tensor x_t0, std::size_t t0,
                            std::span<Rng> rngs) {
  if (t0 >= schedule.timesteps()) {
    throw std::invalid_argument("ddpm_sample_from: t0 out of range");
  }
  NoiseSource source(rngs, x_t0.shape());
  for (std::size_t step = t0 + 1; step-- > 0;) {
    REPRO_SPAN("diffusion.sample.ddpm_step");
    const nn::Tensor eps = eps_fn(x_t0, step);
    ddpm_step(x_t0, eps, schedule, step, source);
  }
  return x_t0;
}

nn::Tensor ddim_sample_from(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                            nn::Tensor x_t0, std::size_t t0,
                            std::size_t steps, float eta,
                            std::span<Rng> rngs) {
  if (t0 >= schedule.timesteps()) {
    throw std::invalid_argument("ddim_sample_from: t0 out of range");
  }
  if (steps == 0 || steps > t0 + 1) {
    throw std::invalid_argument("ddim_sample_from: bad step count");
  }
  NoiseSource source(rngs, x_t0.shape());
  const std::vector<std::size_t> taus = ddim_taus(t0, steps);
  for (std::size_t i = 0; i < steps; ++i) {
    REPRO_SPAN("diffusion.sample.ddim_step");
    const std::size_t t = taus[i];
    const bool last = i + 1 == steps;
    const float abar_t = schedule.alpha_bar(t);
    const float abar_prev = last ? 1.0f : schedule.alpha_bar(taus[i + 1]);
    const nn::Tensor eps = eps_fn(x_t0, t);
    ddim_step(x_t0, eps, abar_t, abar_prev, eta, last, source);
  }
  return x_t0;
}

nn::Tensor ddpm_sample(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                       const std::vector<std::size_t>& shape,
                       std::span<Rng> rngs) {
  return ddpm_sample_from(eps_fn, schedule, gaussian_tensor(shape, rngs),
                          schedule.timesteps() - 1, rngs);
}

nn::Tensor ddim_sample(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                       const std::vector<std::size_t>& shape,
                       std::size_t steps, float eta, std::span<Rng> rngs) {
  if (steps == 0 || steps > schedule.timesteps()) {
    throw std::invalid_argument("ddim_sample: bad step count");
  }
  return ddim_sample_from(eps_fn, schedule, gaussian_tensor(shape, rngs),
                          schedule.timesteps() - 1, steps, eta, rngs);
}

nn::Tensor ddim_inpaint(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                        const nn::Tensor& known_x0,
                        const std::vector<std::uint8_t>& known_mask,
                        std::size_t steps, float eta, Rng& rng) {
  if (known_mask.size() != known_x0.size()) {
    throw std::invalid_argument("ddim_inpaint: mask size mismatch");
  }
  const std::size_t t0 = schedule.timesteps() - 1;
  if (steps == 0 || steps > schedule.timesteps()) {
    throw std::invalid_argument("ddim_inpaint: bad step count");
  }
  auto clamp_known = [&](nn::Tensor& x, std::size_t t, bool final) {
    const float sa = schedule.sqrt_alpha_bar(t);
    const float sb = schedule.sqrt_one_minus_alpha_bar(t);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!known_mask[i]) continue;
      x[i] = final ? known_x0[i]
                   : sa * known_x0[i] +
                         sb * static_cast<float>(rng.gaussian());
    }
  };

  const std::span<Rng> rngs(&rng, 1);
  NoiseSource source(rngs, known_x0.shape());
  nn::Tensor x = gaussian_tensor(known_x0.shape(), rngs);
  clamp_known(x, t0, /*final=*/false);
  const std::vector<std::size_t> taus = ddim_taus(t0, steps);
  for (std::size_t i = 0; i < steps; ++i) {
    REPRO_SPAN("diffusion.sample.ddim_step");
    const std::size_t t = taus[i];
    const bool last = i + 1 == steps;
    const float abar_t = schedule.alpha_bar(t);
    const float abar_prev = last ? 1.0f : schedule.alpha_bar(taus[i + 1]);
    const nn::Tensor eps = eps_fn(x, t);
    ddim_step(x, eps, abar_t, abar_prev, eta, last, source);
    if (last) {
      clamp_known(x, 0, /*final=*/true);
    } else {
      clamp_known(x, taus[i + 1], /*final=*/false);
    }
  }
  return x;
}

}  // namespace repro::diffusion
