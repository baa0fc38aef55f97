#include "probes.hpp"

#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gsfl/common/async_lane.hpp"
#include "gsfl/common/rng.hpp"
#include "gsfl/common/thread_pool.hpp"
#include "gsfl/data/partition.hpp"
#include "gsfl/data/synthetic_gtsrb.hpp"
#include "gsfl/nn/loss.hpp"
#include "gsfl/nn/optimizer.hpp"
#include "gsfl/nn/split.hpp"
#include "gsfl/schemes/aggregate.hpp"
#include "gsfl/tensor/gemm.hpp"
#include "gsfl/tensor/im2col.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using gsfl::tensor::Shape;
using gsfl::tensor::Tensor;

constexpr double kBudgetS = 0.15;  ///< wall time one probe may spend
constexpr std::size_t kMinReps = 5;
constexpr std::size_t kMaxReps = 20000;
constexpr std::size_t kTracedReps = 64;  ///< spans kept per probe

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One timed step of a probe, wrapped in its own span.
struct Stage {
  const char* span;
  const char* cat;
  std::function<void()> fn;
};

/// Runs `stages` in order, again and again within the probe budget, and
/// returns each stage's median seconds.
std::vector<double> median_stages(Tracer& tracer,
                                  const std::vector<Stage>& stages) {
  std::vector<std::vector<double>> samples(stages.size());
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       rep < kMinReps || (rep < kMaxReps && since(start) < kBudgetS); ++rep) {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const auto t0 = Clock::now();
      {
        auto s = tracer.span(stages[i].span, stages[i].cat, rep < kTracedReps);
        stages[i].fn();
      }
      samples[i].push_back(since(t0));
    }
  }
  std::vector<double> medians;
  for (auto& s : samples) medians.push_back(median(std::move(s)));
  return medians;
}

double median_seconds(Tracer& tracer, const char* span, const char* cat,
                      std::function<void()> fn) {
  return median_stages(tracer, {{span, cat, std::move(fn)}})[0];
}

/// Layers [begin, end) of `model` as a model of their own. A conv/dense
/// cut together with its ReLU keeps the fused pair training runs.
gsfl::nn::Sequential carve(const gsfl::nn::Sequential& model,
                           std::size_t begin, std::size_t end) {
  auto head = model.split(end).first;
  return head.split(begin).second;
}

struct Segment {
  const char* name;
  std::size_t begin;
  std::size_t end;
  const char* expect;  ///< prefix of the segment's first layer name
  const char* fwd_span;
  const char* bwd_span;
  bool gflops;
  bool report;
};

// make_gtsrb_cnn's two-block layout (no batch norm, no dropout).
constexpr Segment kSegments[] = {
    {"conv1", 0, 2, "conv2d", "nn.conv1.fwd", "nn.conv1.bwd", true, true},
    {"pool1", 2, 3, "maxpool", "nn.pool1.fwd", "nn.pool1.bwd", false, true},
    {"conv2", 3, 5, "conv2d", "nn.conv2.fwd", "nn.conv2.bwd", true, true},
    {"pool2", 5, 6, "maxpool", "nn.pool2.fwd", "nn.pool2.bwd", false, true},
    {"flatten", 6, 7, "flatten", "nn.flatten.fwd", "nn.flatten.bwd", false,
     false},
    {"dense1", 7, 9, "dense", "nn.dense1.fwd", "nn.dense1.bwd", true, true},
    {"dense2", 9, 10, "dense", "nn.dense2.fwd", "nn.dense2.bwd", false, true},
};

double gflops(double flops, double seconds) { return flops / seconds / 1e9; }

void probe_gemm(Tracer& tracer, Report& report, const char* layer,
                std::size_t m, std::size_t k, std::size_t n) {
  gsfl::common::Rng rng(17);
  const auto a = Tensor::uniform(Shape{m, k}, rng, -1, 1);
  const auto b = Tensor::uniform(Shape{k, n}, rng, -1, 1);
  Tensor c(Shape{m, n});
  const auto call = [&] {
    gsfl::tensor::gemm(1.0f, a, gsfl::tensor::Trans::kNo, b,
                       gsfl::tensor::Trans::kNo, 0.0f, c);
  };
  const double flops = 2.0 * static_cast<double>(m * n * k);
  double t1 = 0.0;
  {
    gsfl::common::InlineRegionGuard serial;
    t1 = median_seconds(tracer, "tensor.gemm.t1", "tensor", call);
  }
  const double wide = median_seconds(tracer, "tensor.gemm.wide", "tensor", call);
  const std::string base = std::string("tensor.gemm.") + layer + ".gflops.";
  report.set(base + "t1", gflops(flops, t1), "GFLOP/s");
  report.set(base + "wide", gflops(flops, wide), "GFLOP/s");
}

void probe_im2col(Tracer& tracer, Report& report, const char* metric,
                  std::size_t batch, std::size_t channels, std::size_t size) {
  gsfl::common::Rng rng(19);
  const auto input =
      Tensor::uniform(Shape{batch, channels, size, size}, rng, 0, 1);
  const gsfl::tensor::ConvGeometry geom{.in_channels = channels,
                                        .in_h = size,
                                        .in_w = size,
                                        .kernel = 3,
                                        .stride = 1,
                                        .pad = 1};
  std::vector<float> columns(geom.patch_size() * geom.out_positions());
  const std::size_t chw = channels * size * size;
  const double s = median_seconds(tracer, "tensor.im2col", "tensor", [&] {
    for (std::size_t i = 0; i < batch; ++i) {
      gsfl::tensor::im2col_into(input.data().data() + i * chw, geom,
                                columns.data());
    }
  });
  report.set(metric, s * 1e6, "us");
}

}  // namespace

void probe_data(const ProbeSetup& setup, Report& report) {
  const auto& config = setup.experiment.config();
  const gsfl::data::SyntheticGtsrb generator(config.dataset);
  gsfl::common::Rng rng(config.seed);
  std::optional<gsfl::data::Dataset> train;
  report.set("data.generate_ms",
             1e3 * median_seconds(setup.tracer, "data.generate", "data",
                                  [&] { train = generator.generate(rng); }),
             "ms");
  report.set(
      "data.partition_ms",
      1e3 * median_seconds(setup.tracer, "data.partition", "data", [&] {
        auto part =
            gsfl::data::partition_iid(*train, config.num_clients, rng);
        auto clients = gsfl::data::materialize(*train, part);
        if (clients.size() != config.num_clients) {
          throw std::runtime_error("partition lost clients");
        }
      }),
      "ms");
}

void probe_layers(const ProbeSetup& setup, Report& report) {
  Tracer& tracer = setup.tracer;
  const auto& exp = setup.experiment;
  const auto& config = exp.config();
  const std::size_t batch = config.train.batch_size;
  const auto& client0 = exp.client_data().at(0);
  if (client0.size() < batch) throw std::runtime_error("client 0 too small");

  std::vector<std::size_t> first(batch);
  std::iota(first.begin(), first.end(), std::size_t{0});
  const auto [images, labels] = client0.gather(first);

  // data: one batch gather at a fixed pseudo-random index set.
  {
    gsfl::common::Rng rng(config.seed + 1);
    std::vector<std::size_t> idx(batch);
    for (auto& i : idx) i = rng.uniform_index(client0.size());
    report.set("data.batch_gather_us",
               1e6 * median_seconds(tracer, "data.gather", "data",
                                    [&] { (void)client0.gather(idx); }),
               "us");
  }

  // nn, as training runs it: each client or group is one task with the
  // library's nested parallelism inlined.
  {
    const gsfl::common::InlineRegionGuard nested;

    auto model = exp.initial_model();
    gsfl::nn::LossResult loss;
    Tensor logits;
    const auto model_s = median_stages(
        tracer, {{"nn.model.fwd", "nn",
                  [&] {
                    model.zero_grad();
                    logits = model.forward(images, true);
                    loss = gsfl::nn::softmax_cross_entropy(logits, labels);
                  }},
                 {"nn.model.bwd", "nn",
                  [&] { (void)model.backward(loss.grad_logits); }}});
    report.set("nn.model.fwd_ms", model_s[0] * 1e3, "ms");
    report.set("nn.model.bwd_ms", model_s[1] * 1e3, "ms");

    gsfl::nn::Sgd sgd(config.train.learning_rate);
    sgd.attach(model.parameters(), model.gradients());
    report.set("nn.optimizer_step_us",
               1e6 * median_seconds(tracer, "nn.optimizer_step", "nn",
                                    [&] { sgd.step(); }),
               "us");

    // The paper's step 2: client forward, server forward+loss+backward,
    // client backward.
    gsfl::nn::SplitModel split(exp.initial_model(), config.cut_layer);
    Tensor smashed;
    Tensor grad_smashed;
    const auto split_s = median_stages(
        tracer,
        {{"nn.client.fwd", "nn",
          [&] {
            split.zero_grad();
            smashed = split.client_forward(images, true);
          }},
         {"nn.server.fwd_bwd", "nn",
          [&] {
            const auto out = split.server_forward(smashed, true);
            const auto l = gsfl::nn::softmax_cross_entropy(out, labels);
            grad_smashed = split.server_backward(l.grad_logits);
          }},
         {"nn.client.bwd", "nn",
          [&] { split.client_backward(grad_smashed); }}});
    report.set("nn.client.fwd_ms", split_s[0] * 1e3, "ms");
    report.set("nn.server.fwd_bwd_ms", split_s[1] * 1e3, "ms");
    report.set("nn.client.bwd_ms", split_s[2] * 1e3, "ms");

    // The paper's step 1: hand the client-side model to the next trainer.
    {
      auto replica = split.client();
      report.set("nn.state_copy_us",
                 1e6 * median_seconds(tracer, "nn.state_copy", "nn", [&] {
                   replica.load_state(split.client().state());
                 }),
                 "us");
    }

    // Per-layer fused pairs, cut out of the model with Sequential::split.
    const auto full = exp.initial_model();
    if (full.size() != 10) {
      throw std::runtime_error("unexpected model depth " +
                               std::to_string(full.size()));
    }
    gsfl::common::Rng rng(23);
    Tensor x = images;
    for (const auto& seg : kSegments) {
      if (full.layer(seg.begin).name().rfind(seg.expect, 0) != 0) {
        throw std::runtime_error(std::string("layer ") + seg.name + " is " +
                                 full.layer(seg.begin).name());
      }
      auto part = carve(full, seg.begin, seg.end);
      Tensor y = part.forward(x, true);
      const auto dy = Tensor::uniform(y.shape(), rng, -1, 1);
      const auto seg_s = median_stages(tracer, {{seg.fwd_span, "nn",
                                                  [&] {
                                                    part.zero_grad();
                                                    y = part.forward(x, true);
                                                  }},
                                                 {seg.bwd_span, "nn", [&] {
                                                    (void)part.backward(dy);
                                                  }}});
      const double f = seg_s[0];
      const double b = seg_s[1];
      const std::string base = std::string("nn.") + seg.name;
      if (seg.report) {
        report.set(base + ".fwd_ms", f * 1e3, "ms");
        report.set(base + ".bwd_ms", b * 1e3, "ms");
      }
      if (seg.gflops) {
        const auto cost = part.flops(x.shape());
        report.set(base + ".gflops",
                   gflops(static_cast<double>(cost.forward + cost.backward),
                          f + b),
                   "GFLOP/s");
      }
      x = y;
    }
  }

  // tensor: the GEMM each conv/dense forward issues, serial and wide.
  const auto& m = config.model;
  const std::size_t size = config.dataset.image_size;
  probe_gemm(tracer, report, "conv1", m.conv1_filters, m.in_channels * 9,
             batch * size * size);
  probe_gemm(tracer, report, "conv2", m.conv2_filters, m.conv1_filters * 9,
             batch * (size / 2) * (size / 2));
  probe_gemm(tracer, report, "dense1", batch,
             m.conv2_filters * (size / 4) * (size / 4), m.hidden);
  probe_im2col(tracer, report, "tensor.im2col.conv1_us", batch,
               m.in_channels, size);
  probe_im2col(tracer, report, "tensor.im2col.conv2_us", batch,
               m.conv1_filters, size / 2);

  // common: empty fork-join over every pool lane; one lane hand-off.
  const std::size_t lanes = gsfl::common::global_lanes();
  report.set("common.parallel_for_us",
             1e6 * median_seconds(tracer, "common.parallel_for", "common",
                                  [&] {
                                    gsfl::common::global_parallel_for(
                                        1, lanes,
                                        [](std::size_t, std::size_t) {});
                                  }),
             "us");
  report.set("common.lane_task_us",
             1e6 * median_seconds(tracer, "common.lane_task", "common", [] {
               (void)gsfl::common::global_lane()
                   .submit([] { return 1; })
                   .wait();
             }),
             "us");

  // schemes: one FedAvg fold over the round's replicas of the full model.
  {
    const auto state = exp.initial_model().state();
    std::vector<gsfl::nn::StateDict> states(setup.fold_replicas, state);
    std::vector<double> weights(setup.fold_replicas);
    std::iota(weights.begin(), weights.end(), 1.0);
    const double s = median_seconds(tracer, "schemes.fedavg", "schemes", [&] {
      (void)gsfl::schemes::fedavg_states(states, weights);
    });
    std::size_t bytes = 0;
    for (const auto& t : state) bytes += t.size_bytes();
    report.set("schemes.fedavg_ms", s * 1e3, "ms");
    // Computed bytes: every replica read once, the average written once.
    report.set("schemes.fedavg_gbps",
               static_cast<double>((setup.fold_replicas + 1) * bytes) / s /
                   1e9,
               "GB/s");
  }
}

}  // namespace perfbench
