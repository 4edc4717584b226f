// The three workloads. Each starts cold (no cached plans, no host
// calibration), sets up kSetupReps times and keeps the last session, then
// measures for --seconds, checks every output, and reports the end-to-end
// metrics; with --trace 1 it sets up once under spans and reports the
// per-layer metrics instead.
//
// Every model runs at one intra-op thread: set-up, r18-solo's images, the
// fleet's requests, and each image of r50-int8-batch's inter-image fan-out
// across the pool. On a shared 4-vCPU VM, a single-image walk split over
// all cores waits at ~80 fork/join barriers for whichever core the
// hypervisor has taken away; its median moved by 30-60% between runs
// minutes apart, while the one-thread median stayed within 5-15%. The
// split walk is measured in the traced run
// (exec.session.latency_nt_p50_ms), where it carries no bound.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "gpusim/device.h"
#include "nn/models.h"
#include "serving/inference_server.h"

namespace tdcbench {

namespace {

/// Distinct input images per workload; requests cycle through them.
constexpr int kImagePool = 8;
/// Least arrivals of an open-loop phase, so its p90 lateness has ten
/// samples beyond it.
constexpr std::size_t kMinArrivals = 120;
/// Arrival rate of r18-fleet's open-loop phase, requests/s.
constexpr double kOpenLoopRate = 25.0;
/// Images per run_batched call of r50-int8-batch.
constexpr std::int64_t kBatch = 4;
/// Arena split that runs every parallel region on its calling thread alone.
constexpr tdc::ArenaConfig kOneThreadArena{tdc::kMaxArenas, 1};

tdc::Tensor output_tensor(const tdc::InferenceSession& session) {
  const tdc::OpShape& s = session.output_shape();
  return tdc::Tensor({s.c, s.h, s.w});
}

std::vector<float> workspace(std::int64_t bytes) {
  return std::vector<float>(static_cast<std::size_t>((bytes + 3) / 4));
}

std::string fmt_ms(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  return buf;
}

/// Prints the median and the supported tail of a timing, with its count.
void print_summary(const char* what, const std::vector<double>& lat_s) {
  const Summary s = summarize(lat_s);
  std::printf("%s: n=%lld p50 %s", what, static_cast<long long>(s.n),
              fmt_ms(s.p50).c_str());
  if (s.tail_p > 0.0) {
    std::printf(", p%g %s", s.tail_p * 100.0, fmt_ms(s.tail).c_str());
  }
  std::printf("\n");
}

/// The end-to-end metrics every workload reports.
void add_e2e_metrics(Outcome& out, const std::vector<double>& setup_s,
                     const std::vector<double>& lat_s, double throughput,
                     double workspace_bytes) {
  out.metrics.add("setup_s", median(setup_s), "s");
  out.metrics.add("latency_p50_ms", median(lat_s) * 1e3, "ms");
  out.metrics.add("throughput_ips", throughput, "images/s");
  out.metrics.add("workspace_mib", workspace_bytes / kMiB, "MiB");
  std::printf("setup: %zu cold starts, median %.3f s\n", setup_s.size(),
              median(setup_s));
  print_summary("latency", lat_s);
}

/// Fork/join regions of the shared runtime per image served since `before`.
void add_region_metrics(Outcome& out, const tdc::ParallelStats& before,
                        std::int64_t images) {
  const tdc::ParallelStats now = tdc::parallel_stats();
  const double n = static_cast<double>(std::max<std::int64_t>(images, 1));
  out.metrics.add(
      "common.pool_regions_per_image",
      static_cast<double>(now.pool_regions - before.pool_regions) / n,
      "count");
  out.metrics.add(
      "common.inline_regions_per_image",
      static_cast<double>(now.inline_regions - before.inline_regions) / n,
      "count");
  out.metrics.add(
      "common.serial_fallbacks",
      static_cast<double>(now.serial_fallbacks - before.serial_fallbacks),
      "count");
}

void add_quality_metrics(Outcome& out, const Agreement& agree) {
  out.metrics.add("exec.quantize.top1_agree", agree.top1, "ratio");
  out.metrics.add("exec.quantize.max_logit_err", agree.max_err, "logit");
}

std::vector<tdc::Tensor> run_each(const tdc::InferenceSession& session,
                                  const std::vector<tdc::Tensor>& images) {
  std::vector<tdc::Tensor> outs;
  for (const tdc::Tensor& x : images) {
    outs.push_back(session.run(x));
  }
  return outs;
}

/// Rounds over the image pool, one at one intra-op thread and one with the
/// whole pool per image, for `seconds` (one round at least). Every output
/// must equal `expected` bitwise. With `report`, adds the two medians as
/// the exec.session.* per-layer metrics.
void compare_widths(const tdc::InferenceSession& session,
                    const std::vector<tdc::Tensor>& images,
                    const std::vector<tdc::Tensor>& expected, double seconds,
                    bool report, Outcome& out) {
  std::vector<float> ws = workspace(session.workspace_bytes());
  tdc::Tensor y = output_tensor(session);
  std::vector<double> one;
  std::vector<double> full;
  std::int64_t mismatches = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (const bool whole_pool : {false, true}) {
      tdc::set_arena_config(whole_pool ? tdc::ArenaConfig{} : kOneThreadArena);
      for (std::size_t k = 0; k < images.size(); ++k) {
        const Clock::time_point t0 = Clock::now();
        if (out.attempt([&] { session.run(images[k], &y, ws); })) {
          (whole_pool ? full : one).push_back(seconds_since(t0));
          mismatches += !bitwise_equal(y, expected[k]);
        }
      }
    }
  } while (seconds_since(start) < seconds);
  tdc::set_arena_config(kOneThreadArena);
  out.check(mismatches == 0,
            std::to_string(mismatches) +
                " outputs differ between one intra-op thread and " +
                std::to_string(tdc::num_threads()) + " threads");
  if (report) {
    out.metrics.add("exec.session.latency_1t_p50_ms", median(one) * 1e3, "ms");
    out.metrics.add("exec.session.latency_nt_p50_ms", median(full) * 1e3,
                    "ms");
    print_summary("session at 1 thread", one);
    print_summary("session at all threads", full);
  }
}

/// The per-layer probes every traced run ends with, on the workload's
/// session: the 1-vs-N-thread session latency, the op profile at one
/// intra-op thread, the GEMM rates, and the trace file.
void finish_traced(const Args& args, const tdc::InferenceSession& session,
                   const std::vector<OpInfo>& ops,
                   const std::vector<tdc::Tensor>& images,
                   const std::vector<tdc::Tensor>& expected, Tracer& tracer,
                   Outcome& out) {
  compare_widths(session, images, expected, 0.2 * args.seconds, true, out);
  profile_ops(session, ops, images[0], 0.3 * args.seconds, tracer, out);
  tdc::set_arena_config({});
  probe_gemm(tdc::num_threads(), tracer, out);
  tdc::set_arena_config(kOneThreadArena);
  finish_trace(args, tracer);
}

}  // namespace

// ---------------------------------------------------------------- r18-solo --

void run_r18_solo(const Args& args, Outcome& out) {
  tdc::set_num_threads(available_cpus());
  tdc::set_arena_config(kOneThreadArena);
  Tracer tracer(args.trace);
  const std::vector<tdc::Tensor> images = make_images(args.seed, kImagePool);

  Prepared model;
  tdc::InferenceSession session;
  std::vector<float> ws;
  std::vector<double> setup_s;
  std::vector<std::string> setup_digests;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const Tracer::Scope span(tracer, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    model = prepare(tdc::make_resnet18(), args.seed, false, tracer);
    session = args.trace ? probe_compile(model, {}, tracer, out)
                         : tdc::InferenceSession::compile(
                               tdc::make_a100(), model.spec, model.weights,
                               model.codesign.layers);
    ws = workspace(session.workspace_bytes());
    tdc::Tensor y = output_tensor(session);
    if (out.attempt([&] { session.run(images[0], &y, ws); })) {
      setup_s.push_back(seconds_since(t0));
      out.check(bitwise_equal(y, session.run(images[0])),
                "r18-solo: the cold first response differs from a warm run");
    }
    setup_digests.push_back(picks_digest(describe_ops(model, session)));
  }
  const std::vector<OpInfo> ops = describe_ops(model, session);
  emit_run_card(args, ops, setup_digests);
  check_codesign(model, out);
  const std::vector<tdc::Tensor> expected = run_each(session, images);

  if (args.trace) {
    const tdc::ParallelStats before = tdc::parallel_stats();
    run_each(session, images);
    add_region_metrics(out, before, kImagePool);
    add_quality_metrics(out, check_against_reference(
                                 model, session, {images[0], images[1]}, out));
    add_unserved_metrics(out);
    finish_traced(args, session, ops, images, expected, tracer, out);
    return;
  }
  // Closed loop, one client: the pool images back to back.
  std::vector<double> lat;
  tdc::Tensor y = output_tensor(session);
  std::int64_t mismatches = 0;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < args.seconds) {
    for (std::size_t k = 0; k < images.size(); ++k) {
      const Clock::time_point t0 = Clock::now();
      if (out.attempt([&] { session.run(images[k], &y, ws); })) {
        lat.push_back(seconds_since(t0));
        mismatches += !bitwise_equal(y, expected[k]);
      }
    }
  }
  const double wall = seconds_since(start);
  out.check(mismatches == 0, "r18-solo: " + std::to_string(mismatches) +
                                 " responses differ from the first run");
  compare_widths(session, images, expected, 0.0, false, out);
  add_e2e_metrics(out, setup_s, lat, static_cast<double>(lat.size()) / wall,
                  static_cast<double>(session.workspace_bytes()));
  (void)check_against_reference(model, session, {images[0], images[1]}, out);
}

// --------------------------------------------------------------- r18-fleet --

namespace {

struct Arrival {
  double due_s;
  int image;
};

/// Poisson arrivals at `rate` over `duration_s` (at least kMinArrivals).
std::vector<Arrival> arrival_schedule(std::uint64_t seed, double rate,
                                      double duration_s) {
  tdc::Rng rng(derive_seed(seed, Stream::kSchedule));
  std::vector<Arrival> schedule;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s && schedule.size() >= kMinArrivals) {
      return schedule;
    }
    schedule.push_back(
        {t, static_cast<int>(rng.uniform_index(kImagePool))});
  }
}

}  // namespace

void run_r18_fleet(const Args& args, Outcome& out) {
  const int nproc = available_cpus();
  tdc::set_num_threads(nproc);
  tdc::set_arena_config(kOneThreadArena);
  // Fewer replicas than senders, so requests queue and coalesce; one core
  // is left to the senders.
  const int replicas = std::max(1, nproc - 1);
  const int senders = 2 * replicas;
  Tracer tracer(args.trace);
  const std::vector<tdc::Tensor> images = make_images(args.seed, kImagePool);

  tdc::ServerOptions options;
  options.replicas = replicas;
  options.coalescer.max_batch = 4;
  options.coalescer.max_delay_s = 0.002;

  Prepared model;
  std::optional<tdc::InferenceServer> server;
  tdc::InferenceSession solo;
  std::vector<double> setup_s;
  std::vector<std::string> setup_digests;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const Tracer::Scope span(tracer, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    model = prepare(tdc::make_resnet18(), args.seed, false, tracer);
    if (args.trace) {
      solo = probe_compile(model, options.session, tracer, out);
    }
    {
      const Tracer::Scope compile_span(tracer, "serving.compile");
      server.emplace(tdc::InferenceServer::compile(
          tdc::make_a100(), model.spec, model.weights, model.codesign.layers,
          options));
    }
    tdc::Tensor y({1000, 1, 1});
    const bool served = out.attempt([&] { server->infer(images[0], &y); });
    if (served) {
      setup_s.push_back(seconds_since(t0));
    }
    // The solo oracle compiles from the replicas' cached plans.
    if (!args.trace) {
      solo = tdc::InferenceSession::compile(
          tdc::make_a100(), model.spec, model.weights, model.codesign.layers,
          options.session);
    }
    out.check(!served || bitwise_equal(y, solo.run(images[0])),
              "r18-fleet: the cold first response differs from a solo "
              "session run");
    setup_digests.push_back(picks_digest(describe_ops(model, solo)));
  }
  const std::vector<tdc::Tensor> expected = run_each(solo, images);
  const std::vector<OpInfo> ops = describe_ops(model, solo);
  emit_run_card(args, ops, setup_digests);
  check_codesign(model, out);

  std::atomic<std::int64_t> mismatches{0};
  const auto request = [&](int k, tdc::Tensor& y) {
    const Tracer::Scope span(tracer, "serving.infer");
    const bool ok = out.attempt(
        [&] { server->infer(images[static_cast<std::size_t>(k)], &y); });
    if (ok && !bitwise_equal(y, expected[static_cast<std::size_t>(k)])) {
      mismatches.fetch_add(1);
    }
    return ok;
  };

  // Closed loop: every sender waits for its reply before sending the next
  // image. Returns the number served; *wall_s is the phase length.
  const auto closed_loop = [&](double duration_s, double* wall_s) {
    std::atomic<std::int64_t> served{0};
    std::vector<std::thread> threads;
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < senders; ++c) {
      threads.emplace_back([&, c] {
        tdc::Tensor y({1000, 1, 1});
        for (int k = c % kImagePool; seconds_since(t0) < duration_s;
             k = (k + 1) % kImagePool) {
          served.fetch_add(request(k, y) ? 1 : 0);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    *wall_s = seconds_since(t0);
    return served.load();
  };

  // Open loop: requests are due on a seeded Poisson schedule whatever the
  // server's state; each is timed from when it was due, and how late its
  // sender got to it is recorded too.
  const auto open_loop = [&](double duration_s, std::vector<double>* late_s) {
    const std::vector<Arrival> schedule =
        arrival_schedule(args.seed, kOpenLoopRate, duration_s);
    std::vector<double> lat(schedule.size(), -1.0);
    std::vector<double> late(schedule.size(), 0.0);
    std::atomic<std::size_t> next{0};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (int c = 0; c < senders; ++c) {
      threads.emplace_back([&] {
        tdc::Tensor y({1000, 1, 1});
        for (std::size_t i = next.fetch_add(1); i < schedule.size();
             i = next.fetch_add(1)) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule[i].due_s));
          std::this_thread::sleep_until(due);
          late[i] = std::chrono::duration<double>(Clock::now() - due).count();
          if (request(schedule[i].image, y)) {
            lat[i] = std::chrono::duration<double>(Clock::now() - due).count();
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    *late_s = late;
    std::vector<double> served;
    std::copy_if(lat.begin(), lat.end(), std::back_inserter(served),
                 [](double v) { return v >= 0.0; });
    return served;
  };

  const tdc::ServerStats stats_before = server->stats();
  const tdc::ParallelStats regions_before = tdc::parallel_stats();
  double saturated_wall = 0.0;
  std::vector<double> late_s;
  const std::int64_t saturated =
      closed_loop((args.trace ? 0.2 : 0.4) * args.seconds, &saturated_wall);
  const std::vector<double> open =
      open_loop((args.trace ? 0.3 : 0.6) * args.seconds, &late_s);
  const tdc::ServerStats stats = server->stats();
  out.check(mismatches.load() == 0,
            "r18-fleet: " + std::to_string(mismatches.load()) +
                " responses differ from a solo session run");
  std::printf("fleet: %d replicas, %d senders; open loop %zu requests at "
              "%.0f/s\n",
              replicas, senders, open.size(), kOpenLoopRate);
  print_summary("send lateness", late_s);

  if (!args.trace) {
    const double fleet_ws = std::max(solo.workspace_bytes(),
                                     solo.batched_workspace_bytes(
                                         options.coalescer.max_batch));
    add_e2e_metrics(out, setup_s, open,
                    static_cast<double>(saturated) / saturated_wall,
                    static_cast<double>(replicas) * fleet_ws);
    return;
  }
  add_region_metrics(out, regions_before,
                     stats.completed - stats_before.completed);
  const std::int64_t batches = stats.batches - stats_before.batches;
  const std::int64_t coalesced =
      stats.coalesced_images - stats_before.coalesced_images;
  out.metrics.add("serving.mean_batch",
                  batches > 0 ? static_cast<double>(coalesced) /
                                    static_cast<double>(batches)
                              : 0.0,
                  "images");
  out.metrics.add("serving.batches", static_cast<double>(batches), "count");
  out.metrics.add("serving.solo_runs",
                  static_cast<double>(stats.solo_runs - stats_before.solo_runs),
                  "count");
  out.metrics.add("serving.peak_pending",
                  static_cast<double>(stats.peak_pending), "count");
  out.metrics.add("serving.expired_in_queue",
                  static_cast<double>(stats.expired_in_queue -
                                      stats_before.expired_in_queue),
                  "count");
  out.metrics.add("serving.rejected_overload",
                  static_cast<double>(stats.rejected_overload -
                                      stats_before.rejected_overload),
                  "count");
  out.metrics.add("serving.send_late_p90_ms",
                  tail_percentile(late_s, 0.9) * 1e3, "ms");
  add_quality_metrics(out, check_against_reference(
                               model, solo, {images[0], images[1]}, out));
  finish_traced(args, solo, ops, images, expected, tracer, out);
}

// ---------------------------------------------------------- r50-int8-batch --

void run_r50_int8_batch(const Args& args, Outcome& out) {
  const int nproc = available_cpus();
  tdc::set_num_threads(nproc);
  tdc::set_arena_config(kOneThreadArena);
  Tracer tracer(args.trace);
  const std::vector<tdc::Tensor> images = make_images(args.seed, kImagePool);
  // Two batches cover the pool: images 0..3 and 4..7.
  std::vector<tdc::Tensor> batches;
  for (std::int64_t b = 0; b < kImagePool / kBatch; ++b) {
    tdc::Tensor x({kBatch, 3, 224, 224});
    for (std::int64_t j = 0; j < kBatch; ++j) {
      const tdc::Tensor& img = images[static_cast<std::size_t>(b * kBatch + j)];
      std::copy(img.raw(), img.raw() + img.numel(), x.raw() + j * img.numel());
    }
    batches.push_back(std::move(x));
  }

  Prepared model;
  tdc::InferenceSession session;
  std::vector<float> ws;
  std::vector<double> setup_s;
  std::vector<std::string> setup_digests;
  tdc::Tensor yb({kBatch, 1000, 1, 1});
  // run_batched fans images out over the whole pool, one image per worker.
  const auto run_batch = [&](std::size_t b) {
    tdc::set_arena_config({});
    const bool ok =
        out.attempt([&] { session.run_batched(batches[b], &yb, ws); });
    tdc::set_arena_config(kOneThreadArena);
    return ok;
  };
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const Tracer::Scope span(tracer, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    model = prepare(tdc::make_resnet50(), args.seed, true, tracer);
    tdc::SessionOptions options;
    options.quant = &model.quant;
    session = args.trace ? probe_compile(model, options, tracer, out)
                         : tdc::InferenceSession::compile(
                               tdc::make_a100(), model.spec, model.weights,
                               model.codesign.layers, options);
    ws = workspace(session.batched_workspace_bytes(kBatch));
    if (run_batch(0)) {
      setup_s.push_back(seconds_since(t0));
      for (std::size_t j = 0; j < static_cast<std::size_t>(kBatch); ++j) {
        out.check(bitwise_equal(yb.raw() + j * 1000,
                                session.run(images[j]).raw(), 1000),
                  "r50-int8-batch: the cold first batch differs from run() "
                  "of its images");
      }
    }
    setup_digests.push_back(picks_digest(describe_ops(model, session)));
  }
  const std::vector<tdc::Tensor> expected = run_each(session, images);
  const std::vector<OpInfo> ops = describe_ops(model, session);
  emit_run_card(args, ops, setup_digests);
  check_codesign(model, out);

  // Each image of each batch must equal run() of that image bitwise.
  std::vector<double> lat;
  std::int64_t mismatches = 0;
  const tdc::ParallelStats regions_before = tdc::parallel_stats();
  const Clock::time_point start = Clock::now();
  do {
    for (const std::size_t b : {0, 1}) {
      const Clock::time_point t0 = Clock::now();
      if (run_batch(b)) {
        lat.push_back(seconds_since(t0));
        for (std::int64_t j = 0; j < kBatch; ++j) {
          mismatches += !bitwise_equal(
              yb.raw() + j * 1000,
              expected[static_cast<std::size_t>(b) * kBatch + j].raw(), 1000);
        }
      }
    }
  } while (!args.trace && seconds_since(start) < args.seconds);
  const double wall = seconds_since(start);
  const std::int64_t batch_images =
      static_cast<std::int64_t>(lat.size()) * kBatch;
  out.check(mismatches == 0, "r50-int8-batch: " + std::to_string(mismatches) +
                                 " run_batched images differ from run()");
  // The fan-out at one thread must give the same images too.
  tdc::set_num_threads(1);
  if (out.attempt([&] { session.run_batched(batches[1], &yb, ws); })) {
    bool same = true;
    for (std::int64_t j = 0; j < kBatch; ++j) {
      same = same && bitwise_equal(yb.raw() + j * 1000,
                                   expected[kBatch + j].raw(), 1000);
    }
    out.check(same, "r50-int8-batch: run_batched differs between 1 and " +
                        std::to_string(nproc) + " threads");
  }
  tdc::set_num_threads(nproc);

  if (!args.trace) {
    compare_widths(session, images, expected, 0.0, false, out);
    const double batch_ws =
        static_cast<double>(session.batched_workspace_bytes(kBatch));
    add_e2e_metrics(out, setup_s, lat,
                    static_cast<double>(batch_images) / wall, batch_ws);
    return;
  }
  add_region_metrics(out, regions_before, batch_images);
  // Quality guard: int8 logits against the fp32 session of the same model.
  const tdc::InferenceSession fp32 = tdc::InferenceSession::compile(
      tdc::make_a100(), model.spec, model.weights, model.codesign.layers);
  add_quality_metrics(out, compare_logits(expected, run_each(fp32, images)));
  add_unserved_metrics(out);
  finish_traced(args, session, ops, images, expected, tracer, out);
}

}  // namespace tdcbench
