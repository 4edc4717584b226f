#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/host_cost.h"
#include "exec/microbench.h"
#include "exec/plan_cache.h"
#include "gpusim/device.h"
#include "tucker/flops.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

extern char** environ;

namespace tdcbench {

std::uint64_t derive_seed(std::uint64_t seed, Stream stream) {
  std::uint64_t z =
      seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(stream);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) {
    std::lock_guard<std::mutex> lock(mu_);
    failures_.push_back(what);
  }
}

std::vector<std::string> Outcome::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

bool Outcome::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty();
}

void Outcome::note_error(const tdc::Error& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_noted_++ < 5) {
    std::fprintf(stderr, "operation failed (%s): %s\n",
                 tdc::error_code_name(e.code()), e.what());
  }
}

Prepared prepare(tdc::ModelSpec spec, std::uint64_t seed, bool int8,
                 Tracer& tracer) {
  tdc::PlanCache::instance().clear();
  tdc::reset_host_calibration();
  const tdc::DeviceSpec device = tdc::make_a100();
  Prepared p;
  p.spec = std::move(spec);
  p.weights =
      tdc::random_model_weights(p.spec, derive_seed(seed, Stream::kWeights));
  {
    const Tracer::Scope span(tracer, "exec.host_calibration");
    const Clock::time_point t0 = Clock::now();
    (void)tdc::host_calibration();
    p.host_calibration_s = seconds_since(t0);
  }
  {
    const Tracer::Scope span(tracer, "core.codesign");
    const Clock::time_point t0 = Clock::now();
    tdc::CodesignOptions options;
    options.budget = kBudget;
    p.codesign = tdc::run_codesign(device, p.spec.decomposable_conv_shapes(),
                                   options);
    p.codesign_s = seconds_since(t0);
  }
  if (int8) {
    const Tracer::Scope span(tracer, "exec.calibrate_quant");
    const Clock::time_point t0 = Clock::now();
    tdc::CalibrationOptions options;
    options.seed = derive_seed(seed, Stream::kCalibration);
    p.quant = tdc::calibrate_quant(device, p.spec, p.weights,
                                   p.codesign.layers, options);
    p.calibrate_quant_s = seconds_since(t0);
  }
  return p;
}

std::vector<tdc::Tensor> make_images(std::uint64_t seed, int count) {
  tdc::Rng rng(derive_seed(seed, Stream::kImages));
  std::vector<tdc::Tensor> images;
  for (int i = 0; i < count; ++i) {
    images.push_back(tdc::Tensor::random_uniform({3, 224, 224}, rng));
  }
  return images;
}

const std::vector<std::string>& op_classes() {
  static const std::vector<std::string> classes = {
      "stem", "conv", "tucker", "conv_int8", "tucker_int8",
      "bn",   "relu", "add",    "pool",      "fc"};
  return classes;
}

std::vector<const tdc::LayerDecision*> decisions_by_layer(
    const Prepared& model) {
  const auto& layers = model.spec.layers;
  std::vector<const tdc::LayerDecision*> decision(layers.size(), nullptr);
  std::size_t next = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const tdc::LayerSpec& l = layers[i];
    if (l.kind == tdc::LayerKind::kConv && (l.conv.r > 1 || l.conv.s > 1) &&
        next < model.codesign.layers.size()) {
      decision[i] = &model.codesign.layers[next++];
    }
  }
  return decision;
}

std::vector<OpInfo> describe_ops(const Prepared& model,
                                 const tdc::InferenceSession& session) {
  using tdc::LayerKind;
  const auto& layers = model.spec.layers;
  if (session.num_ops() != static_cast<std::int64_t>(layers.size())) {
    throw std::runtime_error("session ops do not map one-to-one on layers");
  }
  const std::vector<const tdc::LayerDecision*> decision =
      decisions_by_layer(model);
  std::int64_t first_conv = -1;
  for (std::size_t i = 0; i < layers.size() && first_conv < 0; ++i) {
    if (layers[i].kind == LayerKind::kConv) {
      first_conv = static_cast<std::int64_t>(i);
    }
  }

  std::vector<OpInfo> ops;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const tdc::LayerSpec& l = layers[i];
    OpInfo op;
    op.name = session.op_name(static_cast<std::int64_t>(i));
    switch (l.kind) {
      case LayerKind::kConv: {
        const auto* plan = dynamic_cast<const tdc::ConvPlan*>(
            &session.op(static_cast<std::int64_t>(i)));
        if (plan == nullptr) {
          throw std::runtime_error("conv layer " + op.name +
                                   " has no ConvPlan");
        }
        op.algo = plan->algo_name();
        op.int8 = plan->quantized();
        const tdc::ConvShape& shape = plan->shape();
        if (plan->decomposed()) {
          if (decision[i] == nullptr || !decision[i]->decomposed) {
            throw std::runtime_error("Tucker op " + op.name +
                                     " has no decomposed decision");
          }
          op.ranks = decision[i]->ranks;
          op.cls = op.int8 ? "tucker_int8" : "tucker";
          op.flops = tdc::tucker_flops(shape, op.ranks);
          for (const tdc::ConvShape& stage :
               {tdc::first_pointwise_shape(shape, op.ranks),
                tdc::core_conv_shape(shape, op.ranks),
                tdc::last_pointwise_shape(shape, op.ranks)}) {
            const bool core = stage.r > 1 || stage.s > 1;
            op.predicted_s +=
                op.int8 ? tdc::host_conv_cost_s8_s(stage)
                        : tdc::host_conv_cost_s(
                              core ? plan->algo() : tdc::ConvAlgo::kIm2col,
                              stage);
          }
        } else {
          op.cls = op.int8 ? "conv_int8" : "conv";
          op.flops = shape.flops();
          op.predicted_s = op.int8 ? tdc::host_conv_cost_s8_s(shape)
                                   : tdc::host_conv_cost_s(plan->algo(), shape);
        }
        if (static_cast<std::int64_t>(i) == first_conv) {
          op.cls = "stem";
        }
        break;
      }
      case LayerKind::kPool:
      case LayerKind::kGlobalPool:
        op.cls = "pool";
        break;
      case LayerKind::kFullyConnected:
        op.cls = "fc";
        break;
      case LayerKind::kElementwise:
        switch (l.elt) {
          case tdc::EltOp::kBatchNorm:
            op.cls = "bn";
            break;
          case tdc::EltOp::kRelu:
            op.cls = "relu";
            break;
          case tdc::EltOp::kAdd:
          case tdc::EltOp::kAddRelu:
            op.cls = "add";
            break;
          case tdc::EltOp::kConcat:
            op.cls = "other";
            break;
        }
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const std::size_t b = s.find_first_not_of(' ');
    const std::size_t e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

// The tier gemm_s8.cpp compiles for this build; the library and this
// binary share the -march flags.
const char* int8_tier() {
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  return "vnni";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string picks_digest(const std::vector<OpInfo>& ops) {
  std::uint64_t digest = 1469598103934665603ULL;
  for (const OpInfo& op : ops) {
    const std::string pick = op.name + ":" + op.algo + ":" +
                             (op.int8 ? "int8" : "fp32") + ":" +
                             std::to_string(op.ranks.d1) + "/" +
                             std::to_string(op.ranks.d2) + ";";
    for (const char ch : pick) {
      digest = (digest ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    }
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return hex;
}

void emit_run_card(const Args& args, const std::vector<OpInfo>& ops,
                   const std::vector<std::string>& setup_digests) {
  const tdc::HostCalibration cal = tdc::host_calibration();
  const tdc::ArenaConfig arena = tdc::arena_config();
  std::string env = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("TDC_", 0) == 0) {
      const std::size_t eq = kv.find('=');
      const std::string value =
          eq == std::string::npos ? "" : kv.substr(eq + 1);
      env += (env.size() > 1 ? ", " : "") + json_string(kv.substr(0, eq)) +
             ": " + json_string(value);
    }
  }
  env += "}";

  std::string op_list = "[";
  for (const OpInfo& op : ops) {
    if (op.algo.empty()) {
      continue;
    }
    op_list += (op_list.size() > 1 ? ", " : "") +
               std::string("{\"op\": ") + json_string(op.name) +
               ", \"class\": " + json_string(op.cls) +
               ", \"algo\": " + json_string(op.algo) +
               ", \"precision\": \"" + (op.int8 ? "int8" : "fp32") +
               "\", \"ranks\": [" + std::to_string(op.ranks.d1) + ", " +
               std::to_string(op.ranks.d2) + "]}";
  }
  op_list += "]";
  std::string digests = "[";
  for (const std::string& d : setup_digests) {
    digests += (digests.size() > 1 ? ", \"" : "\"") + d + "\"";
    if (d != setup_digests.front()) {
      std::printf("note: compiled picks differ between cold set-ups (%s vs "
                  "%s)\n",
                  setup_digests.front().c_str(), d.c_str());
    }
  }
  digests += "]";

  const std::string card =
      "{\"workload\": " + json_string(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"host\": {\"cpu\": " + json_string(cpu_model()) +
      ", \"int8_tier\": \"" + int8_tier() + "\"" +
      ", \"nproc\": " + std::to_string(available_cpus()) +
      ", \"threads\": " + std::to_string(tdc::num_threads()) +
      ", \"inter_op\": " + std::to_string(arena.inter_op) +
      ", \"intra_op\": " + std::to_string(arena.intra_op) +
      ", \"env\": " + env + "}" +
      ", \"calibration\": {\"gflops\": " + fmt(cal.gflops) +
      ", \"gbs\": " + fmt(cal.gbs) + ", \"s8_gops\": " + fmt(cal.s8_gops) +
      ", \"pinned\": " +
      (cal.gflops_from_env || cal.gbs_from_env || cal.s8_from_env ? "true"
                                                                  : "false") +
      "}, \"picks_digest\": \"" + picks_digest(ops) +
      "\", \"setup_digests\": " + digests + ", \"conv_ops\": " + op_list +
      "}";
  std::printf("runcard %s\n", card.c_str());
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".runcard.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", card.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

void check_codesign(const Prepared& model, Outcome& out) {
  const tdc::CodesignOptions defaults;
  const double achieved = model.codesign.achieved_flops_reduction();
  out.check(achieved >= kBudget - defaults.budget_slack,
            "codesign FLOPs reduction " + fmt(achieved) + " is below budget " +
                fmt(kBudget) + " - slack " + fmt(defaults.budget_slack));
}

bool bitwise_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool bitwise_equal(const tdc::Tensor& a, const tdc::Tensor& b) {
  return a.numel() == b.numel() && bitwise_equal(a.raw(), b.raw(), a.numel());
}

Agreement compare_logits(const std::vector<tdc::Tensor>& a,
                         const std::vector<tdc::Tensor>& b) {
  Agreement agree;
  std::int64_t same_top1 = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float* x = a[i].raw();
    const float* y = b[i].raw();
    const std::int64_t n = a[i].numel();
    same_top1 += (std::max_element(x, x + n) - x) ==
                 (std::max_element(y, y + n) - y);
    for (std::int64_t j = 0; j < n; ++j) {
      agree.max_err = std::max(agree.max_err,
                               static_cast<double>(std::fabs(x[j] - y[j])));
    }
  }
  agree.top1 = a.empty() ? 0.0
                         : static_cast<double>(same_top1) /
                               static_cast<double>(a.size());
  return agree;
}

Agreement check_against_reference(const Prepared& model,
                                  const tdc::InferenceSession& session,
                                  const std::vector<tdc::Tensor>& images,
                                  Outcome& out) {
  tdc::SessionOptions options;
  options.dense_algo = tdc::ConvAlgo::kReference;
  options.tucker_exec = tdc::TuckerExec::kStaged;
  options.tucker_core_algo = tdc::ConvAlgo::kReference;
  options.use_plan_cache = false;
  const tdc::InferenceSession reference = tdc::InferenceSession::compile(
      tdc::make_a100(), model.spec, model.weights, model.codesign.layers,
      options);
  std::vector<tdc::Tensor> got;
  std::vector<tdc::Tensor> want;
  double scale = 1.0;
  for (const tdc::Tensor& x : images) {
    got.push_back(session.run(x));
    want.push_back(reference.run(x));
    for (const float v : want.back().data()) {
      scale = std::max(scale, static_cast<double>(std::fabs(v)));
    }
  }
  // fp32 engines that only reorder sums (and Winograd's exact-in-real
  // transforms) stay within sqrt(K)·u per layer of the oracle; summed over
  // ResNet's <= 21 GEMM layers in series with K <= 4608 that is
  // 21 · sqrt(4608) · 2^-24 ≈ 8.5e-5 of the logit scale.
  const double tolerance = 1e-4 * scale;
  const Agreement agree = compare_logits(got, want);
  out.check(agree.max_err <= tolerance,
            "logits differ from the kReference oracle by " +
                fmt(agree.max_err) + " > tolerance " + fmt(tolerance));
  return agree;
}

}  // namespace tdcbench
