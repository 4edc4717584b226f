// Shared pieces of the end-to-end benchmark: arguments, operation
// accounting, model preparation, the per-op description behind the run
// card and the layer profile, and the correctness checks every workload
// runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/codesign.h"
#include "core/model_spec.h"
#include "exec/graph_plan.h"
#include "exec/quantize.h"
#include "stats.h"
#include "trace.h"

namespace tdcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

inline constexpr double kMiB = 1024.0 * 1024.0;
/// Codesign FLOPs-reduction budget every workload compiles at.
inline constexpr double kBudget = 0.65;
/// Cold set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;  ///< trace and run-card files go here
};

/// Independent streams derived from the workload seed (splitmix64), so
/// weights, images, calibration inputs and the arrival schedule all follow
/// from one number.
enum class Stream : std::uint64_t {
  kWeights = 1,
  kImages = 2,
  kCalibration = 3,
  kSchedule = 4,
};
std::uint64_t derive_seed(std::uint64_t seed, Stream stream);

/// Operation and check accounting of one run; safe to share between
/// sender threads.
class Outcome {
 public:
  /// Runs one library operation. A typed tdc::Error counts as a failed
  /// operation and returns false; anything else propagates and aborts.
  template <class F>
  bool attempt(F&& op) {
    attempted_.fetch_add(1);
    try {
      op();
      return true;
    } catch (const tdc::Error& e) {
      failed_.fetch_add(1);
      note_error(e);
      return false;
    }
  }

  /// Records a failed correctness check (the run then exits non-zero).
  void check(bool ok, const std::string& what);

  std::int64_t attempted() const { return attempted_.load(); }
  std::int64_t failed() const { return failed_.load(); }
  std::vector<std::string> failures() const;
  bool correct() const;

  Metrics metrics;

 private:
  void note_error(const tdc::Error& e);

  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;  // guarded by mu_
  std::int64_t errors_noted_ = 0;      // guarded by mu_
};

/// A model inventory with seeded weights, its codesign decisions and (for
/// int8 workloads) its calibration table.
struct Prepared {
  tdc::ModelSpec spec;
  std::vector<tdc::LayerWeights> weights;
  tdc::CodesignResult codesign;
  tdc::QuantTable quant;  ///< empty for fp32 workloads
  double host_calibration_s = 0.0;
  double codesign_s = 0.0;
  double calibrate_quant_s = 0.0;
};

/// Cold-start inputs of a workload: drops every cached plan and the host
/// calibration, then builds weights, calibrates the host model and runs the
/// codesign (and calibrate_quant when `int8`), each under its layer span.
Prepared prepare(tdc::ModelSpec spec, std::uint64_t seed, bool int8,
                 Tracer& tracer);

/// `count` seeded [3, 224, 224] input images in [-1, 1).
std::vector<tdc::Tensor> make_images(std::uint64_t seed, int count);

/// One session op as the run card and the layer profile see it.
struct OpInfo {
  std::string name;
  std::string cls;        ///< stem, conv, tucker, conv_int8, tucker_int8,
                          ///< bn, relu, add, pool, fc, other
  std::string algo;       ///< resolved algorithm of conv ops, else ""
  bool int8 = false;
  tdc::TuckerRanks ranks;  ///< {0, 0} unless decomposed
  double flops = 0.0;      ///< conv ops only
  double predicted_s = 0.0;  ///< host cost model, conv ops only
};
std::vector<OpInfo> describe_ops(const Prepared& model,
                                 const tdc::InferenceSession& session);

/// The codesign decision of each model layer (null for layers it does not
/// cover), matched the way InferenceSession::compile reads the list: one
/// entry per spatial convolution, in order.
std::vector<const tdc::LayerDecision*> decisions_by_layer(
    const Prepared& model);

/// The classes exec.op.<cls>.* metrics are reported for, conv classes first.
const std::vector<std::string>& op_classes();
inline constexpr int kConvClasses = 5;

/// FNV-1a digest of every conv op's algorithm, precision and ranks: equal
/// digests mean the same compiled picks.
std::string picks_digest(const std::vector<OpInfo>& ops);

/// Prints the run card (host fingerprint, runtime settings, TDC_*
/// environment, host calibration, every conv op's algorithm, precision and
/// ranks, and the picks digest of each cold set-up) as one "runcard {...}"
/// line and writes it to <out_dir>/<workload>-seed<seed>-trace<t>.runcard.json.
void emit_run_card(const Args& args, const std::vector<OpInfo>& ops,
                   const std::vector<std::string>& setup_digests);

/// Checks that the codesign met its FLOPs budget within its slack.
void check_codesign(const Prepared& model, Outcome& out);

/// Compares `session` with an oracle compiled from the same model and
/// decisions with ConvAlgo::kReference, TuckerExec::kStaged and no plan
/// cache, on `images`. Records a failed check past the tolerance; returns
/// {top-1 agreement, max |logit difference|}.
struct Agreement {
  double top1 = 0.0;
  double max_err = 0.0;
};
Agreement check_against_reference(const Prepared& model,
                                  const tdc::InferenceSession& session,
                                  const std::vector<tdc::Tensor>& images,
                                  Outcome& out);

/// Top-1 agreement and max |difference| of two logit vectors' sets.
Agreement compare_logits(const std::vector<tdc::Tensor>& a,
                         const std::vector<tdc::Tensor>& b);

bool bitwise_equal(const tdc::Tensor& a, const tdc::Tensor& b);
bool bitwise_equal(const float* a, const float* b, std::int64_t n);

/// Logical CPUs this process may run on.
int available_cpus();

// Per-layer probes of the traced run (probes.cpp).

/// Times every session op through OpPlan::run_inputs on bench-owned
/// buffers, each call under an "exec.op.<cls>" span, interleaved with
/// untraced session.run calls, for about `seconds`. Adds exec.op.* metrics
/// and bench.trace_overhead_pct; checks the walk reproduces session.run
/// bitwise.
void profile_ops(const tdc::InferenceSession& session,
                 const std::vector<OpInfo>& ops, const tdc::Tensor& image,
                 double seconds, Tracer& tracer, Outcome& out);

/// The fp32 and int8 GEMM rates at fixed layer shapes, at 1 and at
/// `threads` threads (linalg.gemm.*, linalg.gemm_s8.*).
void probe_gemm(int threads, Tracer& tracer, Outcome& out);

/// Set-up breakdown of a cold compile: exec.compile_cold_s,
/// exec.compile_cached_s, exec.plan_cache.*, tucker.decompose_s, the
/// session's arena/plan workspace and int8 op count, and the prepare()
/// timings. Returns the cold-compiled session.
tdc::InferenceSession probe_compile(const Prepared& model,
                                    const tdc::SessionOptions& options,
                                    Tracer& tracer, Outcome& out);

/// Adds the serving.* metrics as zeros for the workloads that do not serve
/// through InferenceServer.
void add_unserved_metrics(Outcome& out);

/// Writes the trace, prints self time per layer, reports span count.
void finish_trace(const Args& args, Tracer& tracer);

// Workloads (workloads.cpp).
void run_r18_solo(const Args& args, Outcome& out);
void run_r18_fleet(const Args& args, Outcome& out);
void run_r50_int8_batch(const Args& args, Outcome& out);

}  // namespace tdcbench
