// Per-layer probes of the traced run. Every call into a library layer is
// made from here under a span named after that layer, and timed with the
// benchmark's own clock.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/plan_cache.h"
#include "gpusim/device.h"
#include "linalg/gemm.h"
#include "linalg/gemm_s8.h"
#include "tucker/tucker.h"

namespace tdcbench {

namespace {

// Span names must outlive the tracer; one literal per op class.
const char* op_span_name(const std::string& cls) {
  static const std::map<std::string, const char*> names = {
      {"stem", "exec.op.stem"},           {"conv", "exec.op.conv"},
      {"tucker", "exec.op.tucker"},       {"conv_int8", "exec.op.conv_int8"},
      {"tucker_int8", "exec.op.tucker_int8"}, {"bn", "exec.op.bn"},
      {"relu", "exec.op.relu"},           {"add", "exec.op.add"},
      {"pool", "exec.op.pool"},           {"fc", "exec.op.fc"}};
  const auto it = names.find(cls);
  return it == names.end() ? "exec.op.other" : it->second;
}

// Median seconds of `fn` over repetitions filling about `budget_s`
// (at least 5), after one warm-up call.
template <class F>
double median_time(double budget_s, Tracer& tracer, const char* span,
                   const F& fn) {
  fn();
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < 5 || seconds_since(start) < budget_s) {
    const Tracer::Scope scope(tracer, span);
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

std::vector<float> random_floats(std::int64_t count, tdc::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

}  // namespace

void profile_ops(const tdc::InferenceSession& session,
                 const std::vector<OpInfo>& ops, const tdc::Tensor& image,
                 double seconds, Tracer& tracer, Outcome& out) {
  const std::int64_t n = session.num_ops();
  std::vector<std::vector<float>> outputs(static_cast<std::size_t>(n));
  std::int64_t op_ws_floats = 1;
  for (std::int64_t i = 0; i < n; ++i) {
    outputs[static_cast<std::size_t>(i)].resize(
        static_cast<std::size_t>(session.op(i).output_shape().floats()));
    op_ws_floats =
        std::max(op_ws_floats, (session.op(i).workspace_bytes() + 3) / 4);
  }
  std::vector<float> op_ws(static_cast<std::size_t>(op_ws_floats));
  std::vector<float> session_ws(
      static_cast<std::size_t>((session.workspace_bytes() + 3) / 4));
  const tdc::OpShape& os = session.output_shape();
  tdc::Tensor y({os.c, os.h, os.w});
  std::vector<const float*> inputs;

  std::vector<std::vector<double>> op_s(static_cast<std::size_t>(n));
  std::vector<double> walk_s;
  std::vector<double> run_s;
  const Clock::time_point start = Clock::now();
  while (walk_s.size() < 5 || seconds_since(start) < seconds) {
    // Untraced reference run, then the traced op-by-op walk of the same
    // image, back to back so both see the same machine state.
    Clock::time_point t0 = Clock::now();
    out.attempt([&] { session.run(image, &y, session_ws); });
    run_s.push_back(seconds_since(t0));

    t0 = Clock::now();
    out.attempt([&] {
      for (std::int64_t i = 0; i < n; ++i) {
        inputs.clear();
        for (const std::int64_t j : session.op_inputs(i)) {
          inputs.push_back(j == tdc::InferenceSession::kModelInput
                               ? image.raw()
                               : outputs[static_cast<std::size_t>(j)].data());
        }
        const Tracer::Scope span(
            tracer, op_span_name(ops[static_cast<std::size_t>(i)].cls));
        const Clock::time_point op_t0 = Clock::now();
        session.op(i).run_inputs(inputs,
                                 outputs[static_cast<std::size_t>(i)].data(),
                                 op_ws);
        op_s[static_cast<std::size_t>(i)].push_back(seconds_since(op_t0));
      }
    });
    walk_s.push_back(seconds_since(t0));
  }
  out.check(bitwise_equal(outputs.back().data(), y.raw(), y.numel()),
            "op-by-op walk does not reproduce InferenceSession::run");

  for (int c = 0; c < static_cast<int>(op_classes().size()); ++c) {
    const std::string& cls = op_classes()[static_cast<std::size_t>(c)];
    double time_s = 0.0;
    double flops = 0.0;
    double predicted_s = 0.0;
    std::int64_t count = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const OpInfo& op = ops[static_cast<std::size_t>(i)];
      if (op.cls == cls) {
        ++count;
        time_s += median(op_s[static_cast<std::size_t>(i)]);
        flops += op.flops;
        predicted_s += op.predicted_s;
      }
    }
    const std::string base = "exec.op." + cls;
    out.metrics.add(base + ".ms", time_s * 1e3, "ms");
    out.metrics.add(base + ".count", static_cast<double>(count), "count");
    if (c < kConvClasses) {
      out.metrics.add(base + ".gflops", count > 0 ? flops / time_s / 1e9 : 0.0,
                      "GFLOP/s");
      out.metrics.add(base + ".pred_over_measured",
                      count > 0 ? predicted_s / time_s : 0.0, "ratio");
    }
  }
  const double run_med = median(run_s);
  out.metrics.add("bench.trace_overhead_pct",
                  100.0 * (median(walk_s) - run_med) / run_med, "%");
  std::printf("op profile: %zu walks, session.run median %.3f ms, traced "
              "walk median %.3f ms\n",
              walk_s.size(), run_med * 1e3, median(walk_s) * 1e3);
}

void probe_gemm(int threads, Tracer& tracer, Outcome& out) {
  struct Shape {
    const char* name;
    std::int64_t m, k, n;
  };
  // M = output channels, K = C·R·S, N = output pixels of the layer each
  // shape stands for: ResNet-18's stem and a layer1 Tucker core at ranks
  // 32/32, a square cache-exceeding GEMM, and ResNet-50's layer1 1×1
  // reduce and 3×3 conv.
  const Shape fp32_shapes[] = {{"stem", 64, 147, 12544},
                               {"tucker_l1", 32, 288, 3136},
                               {"sq512", 512, 512, 512}};
  const Shape s8_shapes[] = {{"r50_1x1", 64, 256, 3136},
                             {"r50_3x3", 64, 576, 3136}};
  constexpr double kBudgetS = 0.2;
  const std::pair<int, const char*> widths[] = {{1, "_1t"}, {threads, "_nt"}};
  const int saved_threads = tdc::num_threads();
  tdc::Rng rng(20230225);

  for (const Shape& s : fp32_shapes) {
    const std::vector<float> a = random_floats(s.m * s.k, rng);
    const std::vector<float> b = random_floats(s.k * s.n, rng);
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    const tdc::PackedGemmA packed =
        tdc::pack_gemm_a(s.m, s.k, a.data(), s.k, 1);
    const double flop = 2.0 * static_cast<double>(s.m * s.k * s.n);
    for (const auto& [t, suffix] : widths) {
      tdc::set_num_threads(t);
      const double sec = median_time(kBudgetS, tracer, "linalg.gemm", [&] {
        tdc::gemm_prepacked(packed, s.n, b.data(), s.n, 1, c.data(), s.n);
      });
      out.metrics.add(std::string("linalg.gemm.") + s.name + ".gflops" +
                          suffix,
                      flop / sec / 1e9, "GFLOP/s");
    }
  }

  for (const Shape& s : s8_shapes) {
    const std::vector<float> a = random_floats(s.m * s.k, rng);
    const tdc::QuantizedRows qa =
        tdc::quantize_rows_s8(s.m, s.k, a.data(), s.k, 1);
    const tdc::PackedGemmAS8 packed =
        tdc::pack_gemm_a_s8(s.m, s.k, qa.values.data(), s.k, 1);
    std::vector<std::uint8_t> b(static_cast<std::size_t>(s.k * s.n));
    for (std::uint8_t& v : b) {
      v = static_cast<std::uint8_t>(rng.uniform_index(128));
    }
    std::vector<std::int32_t> c(static_cast<std::size_t>(s.m * s.n));
    const double ops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    for (const auto& [t, suffix] : widths) {
      tdc::set_num_threads(t);
      const double sec = median_time(kBudgetS, tracer, "linalg.gemm_s8", [&] {
        tdc::gemm_prepacked_s8u8(packed, s.n, b.data(), s.n, 64, c.data(),
                                 s.n);
      });
      out.metrics.add(std::string("linalg.gemm_s8.") + s.name + ".gops" +
                          suffix,
                      ops / sec / 1e9, "GOP/s");
    }
  }
  tdc::set_num_threads(saved_threads);
}

tdc::InferenceSession probe_compile(const Prepared& model,
                                    const tdc::SessionOptions& options,
                                    Tracer& tracer, Outcome& out) {
  const tdc::DeviceSpec device = tdc::make_a100();
  tdc::PlanCache& cache = tdc::PlanCache::instance();
  cache.clear();
  tdc::InferenceSession session;
  Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope span(tracer, "exec.compile_cold");
    session = tdc::InferenceSession::compile(device, model.spec, model.weights,
                                             model.codesign.layers, options);
  }
  const double cold_s = seconds_since(t0);
  t0 = Clock::now();
  {
    const Tracer::Scope span(tracer, "exec.compile_cached");
    (void)tdc::InferenceSession::compile(device, model.spec, model.weights,
                                         model.codesign.layers, options);
  }
  const double cached_s = seconds_since(t0);
  const tdc::PlanCache::Stats stats = cache.stats();

  // The Tucker decompositions the cold compile ran, repeated on their own.
  const std::vector<const tdc::LayerDecision*> decision =
      decisions_by_layer(model);
  double decompose_s = 0.0;
  for (std::size_t i = 0; i < decision.size(); ++i) {
    if (decision[i] != nullptr && decision[i]->decomposed) {
      const Tracer::Scope span(tracer, "tucker.decompose");
      t0 = Clock::now();
      (void)tdc::tucker_decompose(model.weights[i].conv_kernel,
                                  decision[i]->ranks);
      decompose_s += seconds_since(t0);
    }
  }

  std::int64_t int8_ops = 0;
  for (std::int64_t i = 0; i < session.num_ops(); ++i) {
    const auto* plan = dynamic_cast<const tdc::ConvPlan*>(&session.op(i));
    int8_ops += plan != nullptr && plan->quantized();
  }
  const double arena_bytes =
      static_cast<double>(session.arena_floats()) * sizeof(float);

  out.metrics.add("core.codesign_s", model.codesign_s, "s");
  out.metrics.add("exec.host_calibration_s", model.host_calibration_s, "s");
  out.metrics.add("exec.calibrate_quant_s", model.calibrate_quant_s, "s");
  out.metrics.add("tucker.decompose_s", decompose_s, "s");
  out.metrics.add("exec.compile_cold_s", cold_s, "s");
  out.metrics.add("exec.compile_cached_s", cached_s, "s");
  out.metrics.add("exec.plan_cache.hits", static_cast<double>(stats.hits),
                  "count");
  out.metrics.add("exec.plan_cache.misses", static_cast<double>(stats.misses),
                  "count");
  out.metrics.add("exec.plan_cache.entries",
                  static_cast<double>(stats.entries), "count");
  out.metrics.add("exec.int8_ops", static_cast<double>(int8_ops), "count");
  out.metrics.add("exec.arena_mib", arena_bytes / kMiB, "MiB");
  out.metrics.add(
      "exec.plan_ws_mib",
      (static_cast<double>(session.workspace_bytes()) - arena_bytes) / kMiB,
      "MiB");
  return session;
}

void add_unserved_metrics(Outcome& out) {
  out.metrics.add("serving.mean_batch", 0.0, "images");
  for (const char* name :
       {"serving.batches", "serving.solo_runs", "serving.peak_pending",
        "serving.expired_in_queue", "serving.rejected_overload"}) {
    out.metrics.add(name, 0.0, "count");
  }
  out.metrics.add("serving.send_late_p90_ms", 0.0, "ms");
}

void finish_trace(const Args& args, Tracer& tracer) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (!tracer.write_chrome_json(path)) {
    throw std::runtime_error("cannot write " + path);
  }
  std::printf("trace %s (%lld spans); self time by layer:", path.c_str(),
              static_cast<long long>(tracer.span_count()));
  for (const auto& [layer, s] : tracer.self_seconds_by_layer()) {
    std::printf(" %s %.3f s", layer.c_str(), s);
  }
  std::printf("\n");
}

}  // namespace tdcbench
