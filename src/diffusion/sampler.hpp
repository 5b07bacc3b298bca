// Reverse-process samplers.
//
// DDPM (Ho et al. 2020): full ancestral sampling, one network evaluation
// per schedule step. DDIM (Song et al. 2021): deterministic (eta = 0) or
// stochastic subsequence sampling with far fewer steps — the standard
// answer to the paper's "generative speed" open challenge (§4), measured
// by bench/speed_sampling.
#pragma once

#include <functional>
#include <span>

#include "common/rng.hpp"
#include "diffusion/schedule.hpp"

namespace repro::diffusion {

/// Noise predictor: eps = f(x_t, t). Guidance/conditioning/control are
/// composed inside the callable by the pipeline.
using EpsFn = std::function<nn::Tensor(const nn::Tensor& x, std::size_t t)>;

/// The decreasing timestep subsequence DDIM visits from `t0` down to 0
/// with `steps` entries — exposed so the distilled sampler (distill.hpp)
/// fits its student schedules against the exact teacher trajectory.
std::vector<std::size_t> ddim_tau_schedule(std::size_t t0, std::size_t steps);

/// Noise streams. Every sampler takes its noise from `rngs`, which holds
/// either ONE stream that all samples share or one stream PER SAMPLE
/// (rngs.size() == shape[0]); any other size throws
/// std::invalid_argument. Sample b draws ALL of its noise (the initial
/// x_T and any per-step noise) from sample_stream(rngs, b), in the
/// order a single-sample call would consume it. A shared stream drawn
/// sample by sample is exactly the flat element-order draw, so one rule
/// covers both cases. With per-sample streams a sample's bits do not
/// depend on its batch-mates — one [4] call vs four [1] calls with the
/// same four streams yields bit-identical samples, which is what lets
/// the serving batcher coalesce independently seeded requests into one
/// model call.
inline Rng& sample_stream(std::span<Rng> rngs, std::size_t b) {
  return rngs[rngs.size() == 1 ? 0 : b];
}

/// Full DDPM ancestral sampling from pure noise; `shape` is the latent
/// shape [N, C, L].
nn::Tensor ddpm_sample(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                       const std::vector<std::size_t>& shape,
                       std::span<Rng> rngs);

/// DDIM sampling over `steps` evenly spaced timesteps. eta = 0 gives the
/// deterministic sampler; eta = 1 matches DDPM variance.
nn::Tensor ddim_sample(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                       const std::vector<std::size_t>& shape,
                       std::size_t steps, float eta, std::span<Rng> rngs);

/// Partial-trajectory variants (SDEdit-style image guidance): start from
/// a given x_{t0} — typically q_sample(guide, t0) — and denoise from
/// timestep `t0` down to 0. `steps` counts the DDIM evaluations spent on
/// the [0, t0] stretch.
nn::Tensor ddpm_sample_from(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                            nn::Tensor x_t0, std::size_t t0,
                            std::span<Rng> rngs);
nn::Tensor ddim_sample_from(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                            nn::Tensor x_t0, std::size_t t0,
                            std::size_t steps, float eta,
                            std::span<Rng> rngs);

/// Diffusion inpainting (RePaint-style, without resampling): elements
/// where `known_mask` is nonzero are clamped to the appropriately noised
/// `known_x0` after every reverse step, so the model only synthesizes
/// the unknown elements — conditioned on the known ones through the
/// denoiser's receptive field. Backs the paper's §4 "traffic deblurring"
/// agenda item (restoring missing/corrupted parts of a trace).
nn::Tensor ddim_inpaint(const EpsFn& eps_fn, const NoiseSchedule& schedule,
                        const nn::Tensor& known_x0,
                        const std::vector<std::uint8_t>& known_mask,
                        std::size_t steps, float eta, Rng& rng);

}  // namespace repro::diffusion
