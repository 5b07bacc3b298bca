// TraceDiffusion: the end-to-end text-to-traffic pipeline of §3.1.
//
//   pcap flows -> nprint matrices -> packet autoencoder (latents)
//   -> conditional latent DDPM (class prompts, classifier-free guidance,
//      LoRA adapters, ControlNet protocol hints)
//   -> DDPM/DDIM sampling -> color quantization -> constraint projection
//   -> nprint decode -> replayable pcap flows.
//
// This is the library's primary public entry point; examples/ and bench/
// drive everything through it.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "diffusion/autoencoder.hpp"
#include "diffusion/conditioning.hpp"
#include "diffusion/constraint.hpp"
#include "diffusion/controlnet.hpp"
#include "diffusion/distill.hpp"
#include "diffusion/sampler.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/unet1d.hpp"
#include "flowgen/dataset.hpp"

namespace repro::diffusion {

/// The pipeline's noise schedule.
inline constexpr ScheduleKind kPipelineSchedule = ScheduleKind::kCosine;

struct PipelineConfig {
  /// Flow image height (packets per flow); must be divisible by 4.
  /// The paper renders up to 1024 rows; the CPU default is smaller.
  std::size_t packets = 32;

  AutoencoderConfig autoencoder;  // latent_dim feeds unet.in_channels
  UNetConfig unet;
  /// Length of the cosine noise schedule (kPipelineSchedule).
  std::size_t timesteps = 100;

  // Training hyper-parameters.
  std::size_t ae_epochs = 8;
  std::size_t ae_batch = 64;
  float ae_lr = 2e-3f;
  std::size_t ae_max_rows = 20000;  // row subsample cap for AE training

  std::size_t diffusion_epochs = 30;
  std::size_t diffusion_batch = 8;
  float diffusion_lr = 2e-3f;
  float grad_clip = 1.0f;

  bool train_control = true;
  std::size_t control_epochs = 8;
  float control_lr = 2e-3f;

  std::uint64_t seed = 1234;
};

/// kDistilled runs a progressively distilled few-step schedule
/// (distill.hpp) fitted by TraceDiffusion::distill(); requests must ask
/// for a step count that was actually fitted (distilled_step_counts()).
enum class SamplerKind { kDdpm, kDdim, kDistilled };

/// Derives the per-flow RNG seed for flow `flow_index` of a seeded
/// generation request (splitmix64-style mixing). The serving layer uses
/// the same derivation when it concatenates several requests into one
/// batched model call, so a flow's noise streams do not depend on how
/// requests were coalesced — the root of the served-response determinism
/// contract.
std::uint64_t fork_flow_seed(std::uint64_t seed,
                             std::size_t flow_index) noexcept;

struct GenerateOptions {
  std::size_t count = 1;
  SamplerKind sampler = SamplerKind::kDdim;
  std::size_t ddim_steps = 20;  // DDIM runs deterministically (eta 0)
  float guidance_scale = 2.0f;  // 1.0 disables classifier-free guidance
  bool use_control = true;      // ControlNet hints during sampling
  ConstraintMode constraint = ConstraintMode::kProjected;

  /// Extension of the hard projection to the TCP state machine
  /// (constraint.hpp enforce_tcp_state): makes generated TCP flows pass
  /// a strict stateful firewall. Off by default — the paper's pipeline
  /// only projects protocol usage; see bench/replay_validity for the
  /// ablation.
  bool stateful_tcp_repair = false;

  /// One-shot image guidance (SDEdit-style): generation starts from the
  /// class template latent noised to `template_strength` of the schedule
  /// instead of pure noise, so the re-noised stretch is resampled by the
  /// model while the template's flow structure persists — the "image fed
  /// into the fine-tuned base model" part of §3.1. 1.0 = pure noise
  /// (template ignored); 0.0 would copy the template verbatim. Only
  /// active when use_control is set and the class has a template.
  float template_strength = 0.35f;

};

/// Progressive-distillation configuration (TraceDiffusion::distill).
struct DistillConfig {
  /// Round-0 teacher step count (clamped to the trajectory length the
  /// prototype options produce). 20 -> 10 -> 5 -> 3 with rounds = 3.
  std::size_t teacher_steps = 20;
  std::size_t rounds = 3;
  /// Calibration latents per class for the closed-form gain fit.
  std::size_t calibration_count = 4;
  /// Seed for the calibration noise; independent of the pipeline RNG so
  /// distill() never perturbs generate() streams.
  std::uint64_t seed = 4321;
  /// Prototype sampling options: guidance / control / template_strength
  /// determine the start timestep and eps function the stages are
  /// fitted against, and must match the options later used with
  /// SamplerKind::kDistilled. sampler/ddim_steps/count are ignored.
  GenerateOptions options;
};

struct FitStats {
  float ae_final_loss = 0.0f;
  float diffusion_final_loss = 0.0f;
  float control_final_loss = 0.0f;
  std::size_t flows_used = 0;
  std::size_t unet_parameters = 0;
};

class TraceDiffusion {
 public:
  TraceDiffusion(PipelineConfig config, std::vector<std::string> class_names);

  const PipelineConfig& config() const noexcept { return config_; }
  const PromptCodec& prompts() const noexcept { return prompts_; }
  float latent_scale() const noexcept { return latent_scale_; }

  /// Trains autoencoder, diffusion model and (optionally) the control
  /// branch on the given labeled dataset.
  FitStats fit(const flowgen::Dataset& real);

  /// LoRA fine-tuning: freezes the base U-Net and trains only the
  /// adapters on `data` (requires config.unet.lora_rank > 0 and a prior
  /// fit()). Returns the final epoch loss.
  float fit_lora(const flowgen::Dataset& data, std::size_t epochs);

  /// Generates labeled flows for a class. Throws std::logic_error before
  /// fit().
  std::vector<net::Flow> generate(int class_id, const GenerateOptions& opts);

  /// Text-to-traffic: accepts "Type-k" or an application name.
  /// Throws std::invalid_argument for unknown prompts.
  std::vector<net::Flow> generate_from_prompt(const std::string& prompt,
                                              const GenerateOptions& opts);

  /// Deterministic seeded generation: flow i of the `opts.count` flows
  /// draws ALL of its randomness (initial noise, per-step sampler noise,
  /// timestamp gaps) from an independent stream seeded with
  /// fork_flow_seed(seed, i). Unlike generate(), this neither reads nor
  /// advances the pipeline's internal RNG, so the same (class, seed,
  /// opts) always yields bit-identical flows — the library-side half of
  /// the serving determinism contract. `const`: it reads the fitted
  /// model only, so any number of threads may call it on one pipeline.
  std::vector<net::Flow> generate_seeded(int class_id,
                                         const GenerateOptions& opts,
                                         std::uint64_t seed) const;

  /// Batch-friendly seeded entry point: one flow per entry of
  /// `flow_seeds`, all sampled in ONE batched model call
  /// (opts.count is ignored). Because every per-flow noise stream is
  /// keyed by its own seed, concatenating the flow-seed lists of several
  /// requests produces bit-identical flows to issuing those requests
  /// separately — this is what the serving layer's micro-batcher calls.
  std::vector<net::Flow> generate_with_flow_seeds(
      int class_id, const GenerateOptions& opts,
      const std::vector<std::uint64_t>& flow_seeds) const;

  /// One raw generated matrix (already quantized/projected per
  /// opts.constraint) plus the template used — the Figure 2 artifact.
  nprint::Matrix generate_matrix(int class_id, const GenerateOptions& opts,
                                 ProtocolTemplate* used_template = nullptr);

  /// Balanced or custom-distribution dataset synthesis (§3.2 Coverage:
  /// "invoke the generation process an equal number of times for each").
  flowgen::Dataset generate_dataset(const std::vector<std::size_t>& per_class,
                                    const GenerateOptions& opts);

  /// The per-class one-shot control template captured during fit().
  const ProtocolTemplate& class_template(int class_id) const;

  /// Per-class inter-arrival model fitted from the training flows
  /// (lognormal over packet gaps). nprint deliberately drops timing, so
  /// the pcap back-transform re-synthesizes timestamps from this model;
  /// without it every generated flow would have degenerate duration.
  struct TimingModel {
    float log_mu = -6.0f;    // ln(seconds); default ~2.5 ms
    float log_sigma = 1.0f;
  };
  const TimingModel& class_timing(int class_id) const;

  /// §4 "traffic deblurring": restores the missing packets of a
  /// partially observed flow by diffusion inpainting. `packet_known[i]`
  /// marks packet slots that were observed; those packets are returned
  /// verbatim while the vacant slots are synthesized conditioned on the
  /// observed ones (and the class prompt). Slots beyond
  /// `packet_known.size()` count as missing.
  net::Flow deblur(const net::Flow& corrupted,
                   const std::vector<bool>& packet_known, int class_id,
                   const GenerateOptions& opts);

  /// Persists the fitted pipeline: `<prefix>.weights` (autoencoder +
  /// U-Net + control branch parameters) and `<prefix>.meta` (latent
  /// scale and the per-class template flows). Throws std::logic_error
  /// before fit() and std::runtime_error on I/O failure. Not `const`:
  /// the parameter lists it writes hand out mutable pointers.
  void save(const std::string& prefix);

  /// Restores a pipeline saved with `save`. The receiving pipeline must
  /// have been constructed with an identical PipelineConfig and class
  /// list (verified via parameter names/shapes). Marks the pipeline
  /// fitted, rebuilds the control hints, and restores any distilled
  /// stages saved with the checkpoint.
  void load(const std::string& prefix);

  /// Fits distilled few-step sampler stages for every class by
  /// progressive halving (teacher_steps -> /2 -> /2 ...), storing each
  /// round's stage so any of the halved step counts can be requested.
  /// Stages serialize with save()/load(). Returns the number of stages
  /// fitted. Throws std::logic_error before fit().
  std::size_t distill(const DistillConfig& cfg);

  /// True when a distilled stage with this step count exists for the
  /// class (at any start timestep).
  bool has_distilled(int class_id, std::size_t steps) const;

  /// Sorted unique step counts available across all classes — what the
  /// serving layer advertises and admits for SamplerKind::kDistilled.
  std::vector<std::size_t> distilled_step_counts() const;

  UNet1d& unet() noexcept { return *unet_; }
  PacketAutoencoder& autoencoder() noexcept { return *autoencoder_; }

 private:
  struct Encoded {
    nn::Tensor latent;  // [1, C, L], scaled
    int label = 0;
  };

  std::vector<Encoded> encode_dataset(const flowgen::Dataset& data);

  /// Builds the one-shot control hint of every class with a template:
  /// the protocol one-hot stacked with the AE-encoded template-flow
  /// latent — the "class-specific ... image fed into ControlNet" of
  /// §3.1. Runs whenever the templates, the autoencoder or the latent
  /// scale change (fit, fit_lora, load), so sampling only reads hints.
  void build_hints();
  /// The control hint of a class that has a template.
  const nn::Tensor& class_hint(int class_id) const;
  float train_diffusion_epochs(const std::vector<Encoded>& data,
                               std::size_t epochs, float lr,
                               const std::vector<nn::Parameter*>& params,
                               bool with_control_hints);
  /// Where sampling starts: x_{t0} for every sample, the start
  /// timestep, and the standard deviation the result is renormalized to.
  struct SampleStart {
    nn::Tensor x;
    std::size_t t0 = 0;
    float target_std = 1.0f;  // training latents are scaled to unit std
    bool from_template = false;
  };

  /// Builds the start of a `count`-sample request: pure noise at the top
  /// of the schedule, or — when the class template is in play
  /// (use_control, 0 < template_strength < 1) — the SDEdit start, the
  /// template latent noised to t0 = template_strength of the schedule.
  /// Sample b draws its noise from sample_stream(rngs, b); rngs holds one
  /// shared stream or one per sample. Distilled stages are keyed on t0.
  SampleStart sample_start(int class_id, std::size_t count,
                           const GenerateOptions& opts,
                           std::span<Rng> rngs) const;

  /// The one sampling core: start state, then DDPM / DDIM / distilled
  /// denoising to t = 0 under the guided eps function, then per-sample
  /// renormalization. Every generation entry point runs through it.
  nn::Tensor sample_latents(int class_id, std::size_t count,
                            const GenerateOptions& opts,
                            std::span<Rng> rngs) const;

  /// Latent batch -> AE decode -> quantize -> projection onto the class
  /// template (when `constraint` asks for it): one matrix per sample.
  std::vector<nprint::Matrix> decode_latents(nn::Tensor latents,
                                             int class_id,
                                             ConstraintMode constraint) const;

  /// generate() and generate_with_flow_seeds(): checks, sample_latents,
  /// decode_latents, then packets and timestamps — flow i's timestamp
  /// gaps are drawn from sample_stream(rngs, i) after its sampler noise.
  std::vector<net::Flow> sample_flows(int class_id, std::size_t count,
                                      const GenerateOptions& opts,
                                      std::span<Rng> rngs) const;

  /// Builds the classifier-free-guided noise predictor shared by
  /// sample_latents and deblur. With guidance enabled, the cond and
  /// uncond evaluations run as ONE batched [2N] U-Net forward (inputs
  /// stacked cond-first); control residuals are computed once on the
  /// cond ids and tiled across both halves. Per-step scratch (the
  /// stacked input, tiled residuals) lives in state shared by the
  /// returned closure and is reused across sampler steps.
  EpsFn guided_eps_fn(int class_id, std::size_t count,
                      const GenerateOptions& opts) const;

  PipelineConfig config_;
  PromptCodec prompts_;
  Rng rng_;
  NoiseSchedule schedule_;
  // Behind propagate_const, so the const sampling path reaches only the
  // read-only forwards.
  nn::Child<PacketAutoencoder> autoencoder_;
  nn::Child<UNet1d> unet_;
  nn::Child<ControlNetBranch> control_;
  float latent_scale_ = 1.0f;
  bool fitted_ = false;
  /// Fits/updates per-class timing models from labeled flows.
  void fit_timing(const flowgen::Dataset& data);

  /// Assigns model-sampled timestamps to a generated flow, drawing the
  /// inter-arrival gaps from `rng`.
  void assign_timestamps(net::Flow& flow, int class_id, Rng& rng) const;

  /// Stage lookup for SamplerKind::kDistilled; throws
  /// std::invalid_argument when (class, t0, steps) was never fitted.
  const DistilledStage& find_distilled(int class_id, std::size_t t0,
                                       std::size_t steps) const;

  std::map<int, net::Flow> template_flows_;   // one-shot control sources
  std::map<int, ProtocolTemplate> templates_;
  std::map<int, nn::Tensor> hints_;           // control images (build_hints)
  std::map<int, TimingModel> timing_;
  std::map<DistillKey, DistilledStage> distilled_;  // fitted few-step stages
};

}  // namespace repro::diffusion
