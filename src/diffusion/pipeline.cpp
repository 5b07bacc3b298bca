#include "diffusion/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <fstream>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "common/parallel/parallel_for.hpp"
#include "common/stats.hpp"
#include "common/telemetry/trace.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nprint/codec.hpp"

namespace repro::diffusion {
namespace {

/// Probability that a training example's prompt is replaced by the null
/// prompt, which trains the unconditional branch classifier-free
/// guidance needs.
constexpr float kCfgDropout = 0.1f;

/// Tiles a [1, C, L] hint to [N, C, L].
nn::Tensor tile_hint(const nn::Tensor& hint, std::size_t n) {
  const std::size_t c = hint.dim(1), l = hint.dim(2);
  nn::Tensor out({n, c, l});
  for (std::size_t b = 0; b < n; ++b) {
    std::copy(hint.data(), hint.data() + c * l, out.data() + b * c * l);
  }
  return out;
}

/// Stacks a [N, ...] residual tensor with itself into `out` ([2N, ...]),
/// reusing out's storage across sampler steps.
void tile_residual(const nn::Tensor& r, nn::Tensor& out) {
  std::vector<std::size_t> shape = r.shape();
  shape[0] *= 2;
  if (out.shape() != shape) out = nn::Tensor(shape);
  std::copy(r.data(), r.data() + r.size(), out.data());
  std::copy(r.data(), r.data() + r.size(), out.data() + r.size());
}

}  // namespace

std::uint64_t fork_flow_seed(std::uint64_t seed,
                             std::size_t flow_index) noexcept {
  // splitmix64 finalizer over (seed, index): nearby indices give
  // unrelated streams, and index 0 does not collapse to the raw seed.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(flow_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TraceDiffusion::TraceDiffusion(PipelineConfig config,
                               std::vector<std::string> class_names)
    : config_(std::move(config)),
      prompts_(std::move(class_names)),
      rng_(config_.seed),
      schedule_(config_.timesteps, kPipelineSchedule) {
  if (config_.packets % 4 != 0) {
    throw std::invalid_argument("TraceDiffusion: packets must be divisible by 4");
  }
  config_.unet.in_channels = config_.autoencoder.latent_dim;
  config_.unet.num_classes = prompts_.num_classes();
  config_.unet.hint_channels = kHintChannels + config_.autoencoder.latent_dim;
  autoencoder_ = std::make_unique<PacketAutoencoder>(config_.autoencoder, rng_);
  unet_ = std::make_unique<UNet1d>(config_.unet, rng_);
  control_ = std::make_unique<ControlNetBranch>(config_.unet, rng_);
}

void TraceDiffusion::fit_timing(const flowgen::Dataset& data) {
  std::map<int, std::vector<double>> log_gaps;
  for (const auto& flow : data.flows) {
    if (flow.label < 0) continue;
    auto& gaps = log_gaps[flow.label];
    for (std::size_t i = 1;
         i < flow.packets.size() && gaps.size() < 4000; ++i) {
      const double gap =
          flow.packets[i].timestamp - flow.packets[i - 1].timestamp;
      if (gap > 1e-7) gaps.push_back(std::log(gap));
    }
  }
  for (auto& [cls, gaps] : log_gaps) {
    if (gaps.size() < 2) continue;
    TimingModel model;
    model.log_mu = static_cast<float>(mean(gaps));
    model.log_sigma =
        std::max(0.01f, static_cast<float>(stddev(gaps)));
    timing_[cls] = model;
  }
}

const TraceDiffusion::TimingModel& TraceDiffusion::class_timing(
    int class_id) const {
  static const TimingModel kDefault{};
  const auto it = timing_.find(class_id);
  return it == timing_.end() ? kDefault : it->second;
}

void TraceDiffusion::assign_timestamps(net::Flow& flow, int class_id,
                                       Rng& rng) const {
  const TimingModel& model = class_timing(class_id);
  double t = 0.0;
  for (auto& pkt : flow.packets) {
    pkt.timestamp = t;
    const double gap =
        std::min(rng.log_normal(model.log_mu, model.log_sigma), 10.0);
    t += gap;
  }
}

void TraceDiffusion::build_hints() {
  const std::size_t c_lat = config_.autoencoder.latent_dim;
  const std::size_t l = config_.packets;
  hints_.clear();
  for (const auto& [class_id, tmpl] : template_flows_) {
    nn::Tensor hint({1, kHintChannels + c_lat, l});
    const nn::Tensor proto = protocol_hint(tmpl, l);
    std::copy(proto.data(), proto.data() + kHintChannels * l, hint.data());
    nn::Tensor latent = autoencoder_->encode_matrix(
        nprint::encode_flow(tmpl, l, /*pad_to_max=*/true));
    latent.scale(latent_scale_);
    std::copy(latent.data(), latent.data() + c_lat * l,
              hint.data() + kHintChannels * l);
    hints_.emplace(class_id, std::move(hint));
  }
}

const nn::Tensor& TraceDiffusion::class_hint(int class_id) const {
  return hints_.at(class_id);
}

std::vector<TraceDiffusion::Encoded> TraceDiffusion::encode_dataset(
    const flowgen::Dataset& data) {
  REPRO_SPAN("diffusion.encode_dataset");
  std::vector<Encoded> encoded;
  encoded.reserve(data.flows.size());
  for (const auto& flow : data.flows) {
    const nprint::Matrix matrix =
        nprint::encode_flow(flow, config_.packets, /*pad_to_max=*/true);
    Encoded e;
    e.latent = autoencoder_->encode_matrix(matrix);
    e.latent.scale(latent_scale_);
    e.label = flow.label;
    encoded.push_back(std::move(e));
  }
  return encoded;
}

FitStats TraceDiffusion::fit(const flowgen::Dataset& real) {
  if (real.flows.empty()) {
    throw std::invalid_argument("TraceDiffusion::fit: empty dataset");
  }
  REPRO_SPAN("diffusion.fit");
  telemetry::count("diffusion.fit.flows", real.flows.size());
  FitStats stats;
  stats.flows_used = real.flows.size();
  stats.unet_parameters = unet_->parameter_count();

  // --- Capture one-shot control templates (first flow of each class)
  // and fit per-class timing models. ---
  for (const auto& flow : real.flows) {
    if (flow.label >= 0 && !template_flows_.count(flow.label)) {
      template_flows_[flow.label] = flow;
      templates_[flow.label] =
          ProtocolTemplate::from_flow(flow, config_.packets);
    }
  }
  fit_timing(real);

  // --- Phase A: packet autoencoder. ---
  {
    REPRO_SPAN("diffusion.fit.autoencoder");
    // Gather training rows (active packet rows only; padding rows are
    // trivially all -1 and would dominate the loss).
    std::vector<const net::Flow*> flows;
    for (const auto& flow : real.flows) flows.push_back(&flow);
    std::vector<std::vector<float>> rows;
    for (const net::Flow* flow : flows) {
      const std::size_t take =
          std::min(flow->packets.size(), config_.packets);
      for (std::size_t i = 0; i < take; ++i) {
        rows.push_back(nprint::encode_packet(flow->packets[i]));
      }
    }
    // A slice of vacant rows keeps the AE able to represent padding.
    const std::size_t vacant_rows = rows.size() / 16 + 1;
    for (std::size_t i = 0; i < vacant_rows; ++i) {
      rows.emplace_back(nprint::kBitsPerPacket, -1.0f);
    }
    if (rows.size() > config_.ae_max_rows) {
      const auto perm = rng_.permutation(rows.size());
      std::vector<std::vector<float>> subset;
      subset.reserve(config_.ae_max_rows);
      for (std::size_t i = 0; i < config_.ae_max_rows; ++i) {
        subset.push_back(std::move(rows[perm[i]]));
      }
      rows = std::move(subset);
    }
    nn::Tensor row_tensor({rows.size(), nprint::kBitsPerPacket});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::copy(rows[i].begin(), rows[i].end(),
                row_tensor.data() + i * nprint::kBitsPerPacket);
    }
    stats.ae_final_loss = autoencoder_->train(
        row_tensor, config_.ae_epochs, config_.ae_batch, config_.ae_lr, rng_);
    REPRO_LOG_DEBUG() << "autoencoder loss " << stats.ae_final_loss;
  }

  // --- Latent statistics: scale latents to ~unit variance. ---
  latent_scale_ = 1.0f;
  {
    std::vector<Encoded> probe = encode_dataset(real);
    double sq = 0.0;
    std::size_t count = 0;
    for (const auto& e : probe) {
      for (std::size_t i = 0; i < e.latent.size(); ++i) {
        sq += static_cast<double>(e.latent[i]) * e.latent[i];
      }
      count += e.latent.size();
    }
    const double std_dev = std::sqrt(
        sq / static_cast<double>(std::max<std::size_t>(count, 1)));
    latent_scale_ = std_dev > 1e-6 ? static_cast<float>(1.0 / std_dev) : 1.0f;
  }
  build_hints();  // control hints embed scaled latents

  // --- Phase B: conditional latent diffusion. ---
  std::vector<Encoded> encoded = encode_dataset(real);
  unet_->unfreeze_all();
  {
    REPRO_SPAN("diffusion.fit.unet");
    stats.diffusion_final_loss = train_diffusion_epochs(
        encoded, config_.diffusion_epochs, config_.diffusion_lr,
        unet_->parameters(), /*with_control_hints=*/false);
  }

  // --- Phase C: ControlNet branch (base frozen). ---
  if (config_.train_control) {
    REPRO_SPAN("diffusion.fit.controlnet");
    for (nn::Parameter* p : unet_->parameters()) p->trainable = false;
    stats.control_final_loss = train_diffusion_epochs(
        encoded, config_.control_epochs, config_.control_lr,
        control_->parameters(), /*with_control_hints=*/true);
    unet_->unfreeze_all();
  }

  // The weights changed: any fitted distilled stages describe the old
  // model.
  distilled_.clear();

  fitted_ = true;
  return stats;
}

float TraceDiffusion::train_diffusion_epochs(
    const std::vector<Encoded>& data, std::size_t epochs, float lr,
    const std::vector<nn::Parameter*>& params, bool with_control_hints) {
  nn::Adam::Config acfg;
  acfg.lr = lr;
  nn::Adam optimizer(params, acfg);
  const std::size_t c = config_.autoencoder.latent_dim;
  const std::size_t l = config_.packets;
  const std::size_t batch_size = std::max<std::size_t>(config_.diffusion_batch, 1);
  float last_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto perm = rng_.permutation(data.size());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < data.size(); start += batch_size) {
      const std::size_t count = std::min(batch_size, data.size() - start);
      nn::Tensor x0({count, c, l});
      std::vector<int> class_ids(count);
      std::vector<float> timesteps(count);
      nn::Tensor xt({count, c, l});
      const std::size_t hc = config_.unet.hint_channels;
      nn::Tensor hint({count, hc, l});
      for (std::size_t i = 0; i < count; ++i) {
        const Encoded& e = data[perm[start + i]];
        std::copy(e.latent.data(), e.latent.data() + c * l,
                  x0.data() + i * c * l);
        int cls = e.label;
        if (!with_control_hints && rng_.uniform() < kCfgDropout) {
          cls = prompts_.null_id();  // CFG: train the unconditional branch
        }
        class_ids[i] = cls;
        const auto t = static_cast<std::size_t>(
            rng_.uniform_u64(schedule_.timesteps()));
        timesteps[i] = static_cast<float>(t);
        const float sa = schedule_.sqrt_alpha_bar(t);
        const float sb = schedule_.sqrt_one_minus_alpha_bar(t);
        for (std::size_t j = 0; j < c * l; ++j) {
          const float eps = static_cast<float>(rng_.gaussian());
          xt[i * c * l + j] = sa * x0[i * c * l + j] + sb * eps;
        }
        if (with_control_hints) {
          const nn::Tensor& h = class_hint(e.label);
          std::copy(h.data(), h.data() + hc * l, hint.data() + i * hc * l);
        }
      }

      unet_->zero_grad();
      nn::Tensor pred;
      ControlResiduals residuals;
      if (with_control_hints) {
        control_->zero_grad();
        residuals = control_->forward(xt, timesteps, class_ids, hint);
        pred = unet_->forward(xt, timesteps, class_ids, &residuals);
      } else {
        pred = unet_->forward(xt, timesteps, class_ids);
      }
      // x0 parameterization through an EDM-style skip (Karras et al.
      // 2022): the network learns F = x0 - sqrt(abar_t) x_t, the
      // residual, which is exactly zero in the low-noise limit. A small
      // model cannot otherwise represent the identity there (learning it
      // through a deep conv stack is the hard part).
      nn::Tensor target = x0;
      for (std::size_t i = 0; i < count; ++i) {
        const float sa = schedule_.sqrt_alpha_bar(
            static_cast<std::size_t>(timesteps[i]));
        for (std::size_t j = 0; j < c * l; ++j) {
          target[i * c * l + j] -= sa * xt[i * c * l + j];
        }
      }
      nn::Tensor grad;
      const float loss = nn::mse_loss(pred, target, grad);
      if (with_control_hints) {
        ControlResiduals grad_res;
        unet_->backward(grad, &grad_res);
        control_->backward(grad_res);
      } else {
        unet_->backward(grad);
      }
      nn::clip_grad_norm(params, config_.grad_clip);
      optimizer.step();
      epoch_loss += loss;
      ++batches;
    }
    last_loss = static_cast<float>(
        epoch_loss / static_cast<double>(std::max<std::size_t>(batches, 1)));
    telemetry::count("diffusion.train.epochs");
    telemetry::count("diffusion.train.batches", batches);
    telemetry::observe("diffusion.train.epoch_loss", last_loss);
    REPRO_LOG_DEBUG() << (with_control_hints ? "control" : "diffusion")
                      << " epoch " << epoch << " loss " << last_loss;
  }
  return last_loss;
}

float TraceDiffusion::fit_lora(const flowgen::Dataset& data,
                               std::size_t epochs) {
  if (!fitted_) {
    throw std::logic_error("TraceDiffusion::fit_lora: call fit() first");
  }
  if (config_.unet.lora_rank == 0) {
    throw std::logic_error("TraceDiffusion::fit_lora: lora_rank is 0");
  }
  // Register templates for classes first seen during fine-tuning (class
  // extension adds new classes whose one-shot controls come from the
  // fine-tuning data).
  for (const auto& flow : data.flows) {
    if (flow.label >= 0 && !template_flows_.count(flow.label)) {
      template_flows_[flow.label] = flow;
      templates_[flow.label] =
          ProtocolTemplate::from_flow(flow, config_.packets);
    }
  }
  fit_timing(data);
  build_hints();
  REPRO_SPAN("diffusion.fit_lora");
  std::vector<Encoded> encoded = encode_dataset(data);
  unet_->freeze_base();
  std::vector<nn::Parameter*> params = unet_->lora_parameters();
  params.push_back(&unet_->class_embedding_table());
  const float loss = train_diffusion_epochs(
      encoded, epochs, config_.diffusion_lr, params,
      /*with_control_hints=*/false);
  unet_->unfreeze_all();
  // Adapter weights changed the effective model; stale distilled stages
  // must not survive.
  distilled_.clear();
  return loss;
}

namespace {

/// Rescales each sample of a [N, C, L] batch to the target standard
/// deviation (about its own mean). MSE-trained denoisers shrink their
/// output toward the conditional mean; on quantized bit data the lost
/// amplitude pushes marginal field bits (DSCP, option words) across the
/// decoder's thresholds, so every generated latent is rescaled to the
/// class template's standard deviation (cf. the guidance-rescale trick
/// of Lin et al. 2023).
void renormalize_batch(nn::Tensor& x, float target_std) {
  const std::size_t n = x.dim(0);
  const std::size_t stride = x.size() / n;
  parallel::parallel_for(
      0, n, parallel::grain_for(stride), [&](std::size_t bb, std::size_t be) {
        for (std::size_t b = bb; b < be; ++b) {
          float* s = x.data() + b * stride;
          double sum = 0.0, sq = 0.0;
          for (std::size_t i = 0; i < stride; ++i) {
            sum += s[i];
            sq += static_cast<double>(s[i]) * s[i];
          }
          const double mean = sum / static_cast<double>(stride);
          const double var = sq / static_cast<double>(stride) - mean * mean;
          if (var <= 1e-12) continue;
          const float scale = target_std / static_cast<float>(std::sqrt(var));
          for (std::size_t i = 0; i < stride; ++i) {
            s[i] = static_cast<float>(mean) +
                   scale * (s[i] - static_cast<float>(mean));
          }
        }
      });
}

/// Standard deviation of `n` values (about their mean).
float sample_std(const float* x, std::size_t n) {
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += x[i];
    sq += static_cast<double>(x[i]) * x[i];
  }
  const double mean = sum / static_cast<double>(n);
  return static_cast<float>(
      std::sqrt(std::max(sq / static_cast<double>(n) - mean * mean, 0.0)));
}

}  // namespace

EpsFn TraceDiffusion::guided_eps_fn(int class_id, std::size_t count,
                                    const GenerateOptions& opts) const {
  // Shared closure state: id/timestep vectors built once, plus step
  // scratch (stacked CFG input, tiled residuals) reused across steps.
  struct State {
    std::vector<int> cond_ids, uncond_ids, both_ids;
    std::vector<float> ts_n, ts_2n;
    nn::Tensor hint;         // [N, hc, L] tiled control hint
    bool control = false;
    float guidance = 1.0f;
    nn::Tensor xx;           // [2N, C, L] stacked cond|uncond input
    ControlResiduals tiled;  // [2N] residuals (both halves identical)
  };
  auto st = std::make_shared<State>();
  st->cond_ids.assign(count, class_id);
  st->uncond_ids.assign(count, prompts_.null_id());
  st->both_ids = st->cond_ids;
  st->both_ids.insert(st->both_ids.end(), st->uncond_ids.begin(),
                      st->uncond_ids.end());
  st->ts_n.assign(count, 0.0f);
  st->ts_2n.assign(2 * count, 0.0f);
  st->control = opts.use_control && template_flows_.count(class_id) != 0;
  if (st->control) st->hint = tile_hint(class_hint(class_id), count);
  st->guidance = opts.guidance_scale;

  return [this, st](const nn::Tensor& x, std::size_t t) {
    REPRO_SPAN("diffusion.sample.eps_eval");
    telemetry::count("diffusion.sample.eps_evals");
    for (float& v : st->ts_n) v = static_cast<float>(t);
    // Control residuals are computed once on the cond ids and shared by
    // both guidance branches, exactly as the unbatched path did.
    ControlResiduals residuals;
    const ControlResiduals* res_ptr = nullptr;
    if (st->control) {
      residuals = control_->forward(x, st->ts_n, st->cond_ids, st->hint);
      res_ptr = &residuals;
    }
    nn::Tensor out;
    if (st->guidance == 1.0f) {
      out = unet_->forward(x, st->ts_n, st->cond_ids, res_ptr);
    } else {
      // Batched classifier-free guidance: ONE [2N] forward over the
      // stacked cond|uncond rows, then out = uncond + g (cond - uncond).
      std::vector<std::size_t> xx_shape = x.shape();
      xx_shape[0] *= 2;
      if (st->xx.shape() != xx_shape) st->xx = nn::Tensor(xx_shape);
      std::copy(x.data(), x.data() + x.size(), st->xx.data());
      std::copy(x.data(), x.data() + x.size(), st->xx.data() + x.size());
      for (float& v : st->ts_2n) v = static_cast<float>(t);
      const ControlResiduals* both_res = nullptr;
      if (st->control) {
        tile_residual(residuals.skip1, st->tiled.skip1);
        tile_residual(residuals.skip2, st->tiled.skip2);
        tile_residual(residuals.mid, st->tiled.mid);
        both_res = &st->tiled;
      }
      nn::Tensor both =
          unet_->forward(st->xx, st->ts_2n, st->both_ids, both_res);
      out = nn::Tensor(x.shape());
      const float g = st->guidance;
      const float* cond = both.data();
      const float* uncond = both.data() + x.size();
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = uncond[i] + g * (cond[i] - uncond[i]);
      }
    }
    // x0_pred = sa * x_t + F(x_t) (skip), then convert for the
    // eps-consuming samplers: eps = (x_t - sa * x0_pred) / sb.
    const float sa = schedule_.sqrt_alpha_bar(t);
    const float sb = schedule_.sqrt_one_minus_alpha_bar(t);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const float x0_pred = sa * x[i] + out[i];
      out[i] = (x[i] - sa * x0_pred) / sb;
    }
    return out;
  };
}

TraceDiffusion::SampleStart TraceDiffusion::sample_start(
    int class_id, std::size_t count, const GenerateOptions& opts,
    std::span<Rng> rngs) const {
  if (rngs.size() != 1 && rngs.size() != count) {
    throw std::invalid_argument(
        "TraceDiffusion: need one Rng stream, or one per flow");
  }
  const std::size_t c = config_.autoencoder.latent_dim;
  const std::size_t l = config_.packets;
  const std::size_t top = schedule_.timesteps() - 1;
  SampleStart start;
  start.from_template = opts.use_control && template_flows_.count(class_id) &&
                        opts.template_strength < 1.0f &&
                        opts.template_strength > 0.0f;
  start.t0 = start.from_template
                 ? static_cast<std::size_t>(opts.template_strength *
                                            static_cast<float>(top))
                 : top;
  start.x = nn::Tensor({count, c, l});
  // SDEdit-style start: the class template latent, which occupies the
  // hint channels after the protocol one-hot block, noised to t0.
  const float* tmpl = nullptr;
  float sa = 0.0f, sb = 1.0f;
  if (start.from_template) {
    tmpl = class_hint(class_id).data() + kHintChannels * l;
    start.target_std = sample_std(tmpl, c * l);  // class-specific scale
    sa = schedule_.sqrt_alpha_bar(start.t0);
    sb = schedule_.sqrt_one_minus_alpha_bar(start.t0);
  }
  for (std::size_t b = 0; b < count; ++b) {
    Rng& rng = sample_stream(rngs, b);
    float* dst = start.x.data() + b * c * l;
    for (std::size_t i = 0; i < c * l; ++i) {
      const float noise = static_cast<float>(rng.gaussian());
      dst[i] = tmpl != nullptr ? sa * tmpl[i] + sb * noise : noise;
    }
  }
  return start;
}

nn::Tensor TraceDiffusion::sample_latents(int class_id, std::size_t count,
                                          const GenerateOptions& opts,
                                          std::span<Rng> rngs) const {
  REPRO_SPAN("diffusion.sample.latents");
  SampleStart start = sample_start(class_id, count, opts, rngs);
  const std::size_t steps = start.from_template
                                ? std::min(opts.ddim_steps, start.t0 + 1)
                                : opts.ddim_steps;
  const EpsFn eps_fn = guided_eps_fn(class_id, count, opts);
  nn::Tensor out;
  switch (opts.sampler) {
    case SamplerKind::kDdpm:
      out = ddpm_sample_from(eps_fn, schedule_, std::move(start.x), start.t0,
                             rngs);
      break;
    case SamplerKind::kDdim:
      out = ddim_sample_from(eps_fn, schedule_, std::move(start.x), start.t0,
                             steps, /*eta=*/0.0f, rngs);
      break;
    case SamplerKind::kDistilled:
      out = distilled_sample_from(eps_fn, schedule_, std::move(start.x),
                                  find_distilled(class_id, start.t0, steps));
      break;
  }
  if (start.target_std > 1e-6f) {
    renormalize_batch(out, start.target_std);
  }
  return out;
}

const DistilledStage& TraceDiffusion::find_distilled(int class_id,
                                                     std::size_t t0,
                                                     std::size_t steps) const {
  const auto it = distilled_.find(DistillKey{class_id, t0, steps});
  if (it == distilled_.end()) {
    throw std::invalid_argument(
        "TraceDiffusion: no distilled stage for class " +
        std::to_string(class_id) + " at " + std::to_string(steps) +
        " steps (t0 " + std::to_string(t0) +
        "); run distill() or request an available step count");
  }
  return it->second;
}

std::size_t TraceDiffusion::distill(const DistillConfig& cfg) {
  if (!fitted_) {
    throw std::logic_error("TraceDiffusion::distill: call fit() first");
  }
  if (cfg.rounds == 0 || cfg.teacher_steps < 2 || cfg.calibration_count == 0) {
    throw std::invalid_argument("TraceDiffusion::distill: bad config");
  }
  REPRO_SPAN("diffusion.distill");
  const std::size_t n = cfg.calibration_count;
  std::size_t fitted_stages = 0;
  for (std::size_t cls = 0; cls < prompts_.num_classes(); ++cls) {
    const int class_id = static_cast<int>(cls);
    // Calibration batch at t0 — the start generation uses, drawn from a
    // dedicated stream so distill() never reads or advances the
    // pipeline RNG.
    Rng rng(fork_flow_seed(cfg.seed, cls));
    const SampleStart start =
        sample_start(class_id, n, cfg.options, std::span<Rng>(&rng, 1));

    // Progressive halving against the fp32 reference eps function.
    const EpsFn eps_fn = guided_eps_fn(class_id, n, cfg.options);
    DistilledStage teacher =
        teacher_stage(start.t0, std::min(cfg.teacher_steps, start.t0 + 1));
    for (std::size_t round = 0; round < cfg.rounds && teacher.steps() >= 2;
         ++round) {
      StageFit fit = distill_halve(eps_fn, schedule_, teacher, start.x);
      telemetry::observe("diffusion.distill.mse_fitted", fit.mse_fitted);
      REPRO_LOG_DEBUG() << "distill class " << class_id << " "
                        << teacher.steps() << "->" << fit.stage.steps()
                        << " steps, mse " << fit.mse_plain << " -> "
                        << fit.mse_fitted;
      teacher = fit.stage;
      distilled_[DistillKey{class_id, start.t0, fit.stage.steps()}] =
          std::move(fit.stage);
      ++fitted_stages;
    }
  }
  return fitted_stages;
}

bool TraceDiffusion::has_distilled(int class_id, std::size_t steps) const {
  for (const auto& [key, stage] : distilled_) {
    if (key.class_id == class_id && key.steps == steps) return true;
  }
  return false;
}

std::vector<std::size_t> TraceDiffusion::distilled_step_counts() const {
  std::vector<std::size_t> out;
  for (const auto& [key, stage] : distilled_) out.push_back(key.steps);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<net::Flow> TraceDiffusion::generate(int class_id,
                                                const GenerateOptions& opts) {
  return sample_flows(class_id, opts.count, opts, std::span<Rng>(&rng_, 1));
}

std::vector<net::Flow> TraceDiffusion::generate_seeded(
    int class_id, const GenerateOptions& opts, std::uint64_t seed) const {
  std::vector<std::uint64_t> flow_seeds(opts.count);
  for (std::size_t i = 0; i < opts.count; ++i) {
    flow_seeds[i] = fork_flow_seed(seed, i);
  }
  return generate_with_flow_seeds(class_id, opts, flow_seeds);
}

std::vector<net::Flow> TraceDiffusion::generate_with_flow_seeds(
    int class_id, const GenerateOptions& opts,
    const std::vector<std::uint64_t>& flow_seeds) const {
  std::vector<Rng> rngs(flow_seeds.begin(), flow_seeds.end());
  return sample_flows(class_id, rngs.size(), opts, rngs);
}

std::vector<net::Flow> TraceDiffusion::sample_flows(
    int class_id, std::size_t count, const GenerateOptions& opts,
    std::span<Rng> rngs) const {
  if (!fitted_) {
    throw std::logic_error("TraceDiffusion::generate: call fit() first");
  }
  if (class_id < 0 ||
      static_cast<std::size_t>(class_id) >= prompts_.num_classes()) {
    throw std::invalid_argument("TraceDiffusion::generate: bad class id");
  }
  if (count == 0) return {};
  REPRO_SPAN("diffusion.generate");
  telemetry::count("diffusion.generate.flows", count);
  nn::Tensor latents = sample_latents(class_id, count, opts, rngs);

  REPRO_SPAN("diffusion.generate.decode");
  std::vector<nprint::Matrix> matrices =
      decode_latents(std::move(latents), class_id, opts.constraint);
  std::vector<net::Flow> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::Flow flow = nprint::decode_flow(matrices[i]);
    if (opts.stateful_tcp_repair && template_flows_.count(class_id)) {
      flow = enforce_tcp_state(flow, template_flows_.at(class_id));
    }
    flow.label = class_id;
    assign_timestamps(flow, class_id, sample_stream(rngs, i));
    flows.push_back(std::move(flow));
  }
  return flows;
}

std::vector<nprint::Matrix> TraceDiffusion::decode_latents(
    nn::Tensor latents, int class_id, ConstraintMode constraint) const {
  latents.scale(1.0f / latent_scale_);
  // One batched decoder pass over all samples' packet rows.
  std::vector<nprint::Matrix> matrices = autoencoder_->decode_matrices(latents);
  const auto tmpl = templates_.find(class_id);
  for (nprint::Matrix& matrix : matrices) {
    nprint::quantize(matrix);
    if (constraint == ConstraintMode::kProjected && tmpl != templates_.end()) {
      project_to_template(matrix, tmpl->second);
    }
  }
  return matrices;
}

std::vector<net::Flow> TraceDiffusion::generate_from_prompt(
    const std::string& prompt, const GenerateOptions& opts) {
  const auto id = prompts_.parse_prompt(prompt);
  if (!id || *id == prompts_.null_id()) {
    throw std::invalid_argument("generate_from_prompt: unknown prompt '" +
                                prompt + "'");
  }
  return generate(*id, opts);
}

nprint::Matrix TraceDiffusion::generate_matrix(int class_id,
                                               const GenerateOptions& opts,
                                               ProtocolTemplate* used_template) {
  if (!fitted_) {
    throw std::logic_error("TraceDiffusion::generate_matrix: call fit() first");
  }
  nprint::Matrix matrix = std::move(
      decode_latents(sample_latents(class_id, 1, opts,
                                    std::span<Rng>(&rng_, 1)),
                     class_id, opts.constraint)
          .front());
  if (used_template && templates_.count(class_id)) {
    *used_template = templates_.at(class_id);
  }
  return matrix;
}

net::Flow TraceDiffusion::deblur(const net::Flow& corrupted,
                                 const std::vector<bool>& packet_known,
                                 int class_id, const GenerateOptions& opts) {
  if (!fitted_) {
    throw std::logic_error("TraceDiffusion::deblur: call fit() first");
  }
  REPRO_SPAN("diffusion.deblur");
  const std::size_t c = config_.autoencoder.latent_dim;
  const std::size_t l = config_.packets;

  nn::Tensor known = autoencoder_->encode_matrix(
      nprint::encode_flow(corrupted, l, /*pad_to_max=*/true));
  known.scale(latent_scale_);
  std::vector<std::uint8_t> mask(known.size(), 0);
  for (std::size_t t = 0; t < l; ++t) {
    if (t < packet_known.size() && packet_known[t]) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        mask[ch * l + t] = 1;
      }
    }
  }

  EpsFn eps_fn = guided_eps_fn(class_id, /*count=*/1, opts);

  nn::Tensor restored = ddim_inpaint(eps_fn, schedule_, known, mask,
                                     opts.ddim_steps, /*eta=*/0.0f, rng_);
  const nprint::Matrix matrix = std::move(
      decode_latents(std::move(restored), class_id, opts.constraint).front());
  // Row-preserving reassembly: observed slots take the original packet
  // verbatim; missing slots take the synthesized row (skipped when it
  // decodes vacant). decode_flow cannot be used here because it drops
  // vacant rows and would shift the slot <-> packet mapping.
  net::Flow flow;
  flow.label = class_id;
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    const bool observed = r < packet_known.size() && packet_known[r] &&
                          r < corrupted.packets.size();
    net::Packet pkt;
    if (observed) {
      pkt = corrupted.packets[r];
    } else if (!nprint::decode_packet(
                   matrix.data().data() + r * nprint::kBitsPerPacket, pkt)) {
      continue;  // vacant synthesized row
    }
    flow.packets.push_back(std::move(pkt));
  }
  assign_timestamps(flow, class_id, rng_);
  if (!flow.packets.empty()) {
    flow.key = net::FlowKey::from_packet(flow.packets.front()).canonical();
  }
  return flow;
}

flowgen::Dataset TraceDiffusion::generate_dataset(
    const std::vector<std::size_t>& per_class, const GenerateOptions& opts) {
  flowgen::Dataset out;
  for (std::size_t cls = 0; cls < per_class.size(); ++cls) {
    if (per_class[cls] == 0) continue;
    GenerateOptions batch = opts;
    batch.count = per_class[cls];
    auto flows = generate(static_cast<int>(cls), batch);
    for (auto& flow : flows) out.flows.push_back(std::move(flow));
  }
  return out;
}

const ProtocolTemplate& TraceDiffusion::class_template(int class_id) const {
  const auto it = templates_.find(class_id);
  if (it == templates_.end()) {
    throw std::out_of_range("class_template: no template for class");
  }
  return it->second;
}

namespace {

// Meta-file versions: V2 predates sampler distillation, V3 appends the
// distilled-stage section. save() always writes V3; load() accepts both.
constexpr std::uint32_t kMetaMagicV2 = 0x54444D32;  // "TDM2"
constexpr std::uint32_t kMetaMagic = 0x54444D33;    // "TDM3"
/// Largest serialized template packet load() accepts: an IPv4 packet's
/// total length is a u16.
constexpr std::uint32_t kMaxPacketBytes = 65535;

std::vector<nn::Parameter*> all_parameters(PacketAutoencoder& ae,
                                           UNet1d& unet,
                                           ControlNetBranch& control) {
  std::vector<nn::Parameter*> params = ae.parameters();
  for (nn::Parameter* p : unet.parameters()) params.push_back(p);
  for (nn::Parameter* p : control.parameters()) params.push_back(p);
  return params;
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  if (!repro::read_pod(in, value)) {
    throw std::runtime_error("pipeline meta: truncated file");
  }
  return value;
}

}  // namespace

void TraceDiffusion::save(const std::string& prefix) {
  if (!fitted_) {
    throw std::logic_error("TraceDiffusion::save: call fit() first");
  }
  nn::save_parameters(prefix + ".weights",
                      all_parameters(*autoencoder_, *unet_, *control_));
  std::ofstream out(prefix + ".meta", std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("TraceDiffusion::save: cannot open " + prefix +
                             ".meta");
  }
  write_pod(out, kMetaMagic);
  write_pod(out, latent_scale_);
  write_pod(out, static_cast<std::uint32_t>(template_flows_.size()));
  for (const auto& [class_id, flow] : template_flows_) {
    write_pod(out, static_cast<std::int32_t>(class_id));
    write_pod(out, static_cast<std::uint32_t>(flow.packets.size()));
    for (const auto& pkt : flow.packets) {
      write_pod(out, pkt.timestamp);
      const auto wire = pkt.serialize();
      write_pod(out, static_cast<std::uint32_t>(wire.size()));
      repro::write_bytes(out, wire.data(), wire.size());
    }
  }
  write_pod(out, static_cast<std::uint32_t>(timing_.size()));
  for (const auto& [class_id, model] : timing_) {
    write_pod(out, static_cast<std::int32_t>(class_id));
    write_pod(out, model.log_mu);
    write_pod(out, model.log_sigma);
  }
  write_pod(out, static_cast<std::uint32_t>(distilled_.size()));
  for (const auto& [key, stage] : distilled_) {
    write_pod(out, static_cast<std::int32_t>(key.class_id));
    write_pod(out, static_cast<std::uint32_t>(key.t0));
    write_pod(out, static_cast<std::uint32_t>(key.steps));
    for (const std::size_t tau : stage.taus) {
      write_pod(out, static_cast<std::uint32_t>(tau));
    }
    for (const float gain : stage.gains) write_pod(out, gain);
  }
  if (!out) throw std::runtime_error("TraceDiffusion::save: write failed");
}

void TraceDiffusion::load(const std::string& prefix) {
  nn::load_parameters(prefix + ".weights",
                      all_parameters(*autoencoder_, *unet_, *control_));
  std::ifstream in(prefix + ".meta", std::ios::binary);
  if (!in) {
    throw std::runtime_error("TraceDiffusion::load: cannot open " + prefix +
                             ".meta");
  }
  // The meta file is untrusted input: every length and index is checked
  // before anything is allocated or looked up from it.
  const auto bad = [](const std::string& what) {
    return std::runtime_error("TraceDiffusion::load: " + what);
  };
  const auto read_class = [&] {
    const auto class_id = read_pod<std::int32_t>(in);
    if (class_id < 0 ||
        static_cast<std::size_t>(class_id) >= prompts_.num_classes()) {
      throw bad("class id " + std::to_string(class_id) + " out of range");
    }
    return static_cast<int>(class_id);
  };
  const auto magic = read_pod<std::uint32_t>(in);
  if (magic != kMetaMagic && magic != kMetaMagicV2) {
    throw bad("bad meta magic");
  }
  latent_scale_ = read_pod<float>(in);
  const auto template_count = read_pod<std::uint32_t>(in);
  template_flows_.clear();
  templates_.clear();
  for (std::uint32_t t = 0; t < template_count; ++t) {
    const int class_id = read_class();
    const auto packet_count = read_pod<std::uint32_t>(in);
    net::Flow flow;
    flow.label = class_id;
    for (std::uint32_t p = 0; p < packet_count; ++p) {
      const double timestamp = read_pod<double>(in);
      const auto wire_len = read_pod<std::uint32_t>(in);
      if (wire_len > kMaxPacketBytes) {
        throw bad("packet length " + std::to_string(wire_len));
      }
      std::vector<std::uint8_t> wire(wire_len);
      if (!repro::read_bytes(in, wire.data(), wire.size())) {
        throw bad("truncated");
      }
      flow.packets.push_back(net::Packet::parse(wire, timestamp));
    }
    if (!flow.packets.empty()) {
      flow.key = net::FlowKey::from_packet(flow.packets.front()).canonical();
    }
    templates_[class_id] = ProtocolTemplate::from_flow(flow, config_.packets);
    template_flows_[class_id] = std::move(flow);
  }
  timing_.clear();
  const auto timing_count = read_pod<std::uint32_t>(in);
  for (std::uint32_t t = 0; t < timing_count; ++t) {
    const int class_id = read_class();
    TimingModel model;
    model.log_mu = read_pod<float>(in);
    model.log_sigma = read_pod<float>(in);
    timing_[class_id] = model;
  }
  distilled_.clear();
  if (magic == kMetaMagic) {
    const std::size_t timesteps = schedule_.timesteps();
    const auto stage_count = read_pod<std::uint32_t>(in);
    for (std::uint32_t s = 0; s < stage_count; ++s) {
      DistillKey key;
      key.class_id = read_class();
      key.t0 = read_pod<std::uint32_t>(in);
      key.steps = read_pod<std::uint32_t>(in);
      if (key.t0 >= timesteps || key.steps > timesteps) {
        throw bad("distilled stage t0 " + std::to_string(key.t0) + ", " +
                  std::to_string(key.steps) + " steps");
      }
      DistilledStage stage;
      stage.taus.resize(key.steps);
      stage.gains.resize(key.steps);
      for (auto& tau : stage.taus) {
        tau = read_pod<std::uint32_t>(in);
        if (tau >= timesteps) {
          throw bad("distilled stage tau " + std::to_string(tau));
        }
      }
      for (auto& gain : stage.gains) gain = read_pod<float>(in);
      distilled_[key] = std::move(stage);
    }
  }
  build_hints();
  fitted_ = true;
}

}  // namespace repro::diffusion
