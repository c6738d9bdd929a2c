#include "study/ensemble.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/threading.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"

namespace fastqaoa {

namespace {

/// Resolve an EnsembleConfig thread request into an OpenMP num_threads
/// argument (clamped to the instance count; at least 1).
int resolve_threads(int requested, int instances) {
  int t = requested > 0 ? requested : num_threads();
  if (t > instances) t = instances;
  return t < 1 ? 1 : t;
}

std::filesystem::path manifest_path(const std::string& dir) {
  return std::filesystem::path(dir) / "manifest.txt";
}

std::filesystem::path instance_path(const std::string& dir, int inst) {
  return std::filesystem::path(dir) /
         ("instance_" + std::to_string(inst) + ".txt");
}

/// The identity a checkpoint directory is bound to. Everything that shapes
/// an instance's randomness or workload is in here; resuming under a
/// different value of any field would silently mix two studies' results,
/// so mismatches are rejected loudly.
struct StudyFingerprint {
  std::uint64_t dim = 0;
  std::uint64_t seed = 0;
  int instances = 0;
  int max_rounds = 0;
  std::string mixer;
};

void write_manifest(const std::string& dir, const StudyFingerprint& fp) {
  std::ostringstream out;
  out << "fastqaoa-ensemble v1\n";
  out << "dim=" << fp.dim << " seed=" << fp.seed
      << " instances=" << fp.instances << " max_rounds=" << fp.max_rounds
      << " mixer=" << fp.mixer << "\n";
  runtime::atomic_write_file(manifest_path(dir).string(), out.str(),
                             "run_ensemble manifest");
}

/// Validate an existing manifest against this run's identity. Any mismatch
/// (or an unreadable file) throws with the offending field named.
void check_manifest(const std::string& dir, const StudyFingerprint& fp) {
  const std::string path = manifest_path(dir).string();
  std::ifstream in(path);
  FASTQAOA_CHECK(in.good(), "run_ensemble: cannot read manifest " + path);
  std::string header;
  std::getline(in, header);
  FASTQAOA_CHECK(header == "fastqaoa-ensemble v1",
                 "run_ensemble: unrecognized manifest header in " + path);
  std::string line;
  std::getline(in, line);
  StudyFingerprint found;
  std::istringstream fields(line);
  std::string field;
  while (fields >> field) {
    const std::size_t eq = field.find('=');
    FASTQAOA_CHECK(eq != std::string::npos,
                   "run_ensemble: malformed manifest in " + path);
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "dim") {
      found.dim = std::stoull(value);
    } else if (key == "seed") {
      found.seed = std::stoull(value);
    } else if (key == "instances") {
      found.instances = std::stoi(value);
    } else if (key == "max_rounds") {
      found.max_rounds = std::stoi(value);
    } else if (key == "mixer") {
      std::string tail;
      std::getline(fields, tail);
      found.mixer = value + tail;
      break;
    } else {
      FASTQAOA_CHECK(
          false, "run_ensemble: unknown manifest field '" + key + "' in " +
                     path);
    }
  }
  auto mismatch = [&](const std::string& name, const std::string& have,
                      const std::string& want) {
    FASTQAOA_CHECK(false,
                   "run_ensemble: checkpoint dir " + dir +
                       " belongs to a different study — " + name + " is " +
                       have + " but this run expects " + want +
                       "; use a fresh directory or delete the stale one");
  };
  if (found.dim != fp.dim) {
    mismatch("dimension", std::to_string(found.dim), std::to_string(fp.dim));
  }
  if (found.seed != fp.seed) {
    mismatch("seed", std::to_string(found.seed), std::to_string(fp.seed));
  }
  if (found.instances != fp.instances) {
    mismatch("instance count", std::to_string(found.instances),
             std::to_string(fp.instances));
  }
  if (found.max_rounds != fp.max_rounds) {
    mismatch("max_rounds", std::to_string(found.max_rounds),
             std::to_string(fp.max_rounds));
  }
  if (found.mixer != fp.mixer) {
    mismatch("mixer", "'" + found.mixer + "'", "'" + fp.mixer + "'");
  }
}

/// Persist one fully completed instance (atomic write: a crash mid-save
/// leaves no instance file, so presence == complete).
void save_instance(const std::string& dir, int inst,
                   const std::vector<AngleSchedule>& schedules) {
  std::ostringstream out;
  out << "fastqaoa-ensemble-instance v1\n";
  write_schedules(out, schedules);
  runtime::atomic_write_file(instance_path(dir, inst).string(), out.str(),
                             "run_ensemble instance checkpoint");
}

/// Load a previously completed instance, or nullopt when none was saved.
std::optional<std::vector<AngleSchedule>> load_instance(
    const std::string& dir, int inst) {
  const std::string path = instance_path(dir, inst).string();
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::string header;
  std::getline(in, header);
  FASTQAOA_CHECK(header == "fastqaoa-ensemble-instance v1",
                 "run_ensemble: unrecognized instance checkpoint " + path);
  return read_schedules(in, "run_ensemble(" + path + ")");
}

}  // namespace

EnsembleResult run_ensemble(const Mixer& mixer, const InstanceFactory& factory,
                            const EnsembleConfig& config) {
  FASTQAOA_CHECK(config.instances >= 1, "run_ensemble: need >= 1 instance");
  FASTQAOA_CHECK(config.max_rounds >= 1, "run_ensemble: need >= 1 round");

  EnsembleResult result;
  result.schedules.resize(static_cast<std::size_t>(config.instances));
  result.ratios.resize(static_cast<std::size_t>(config.instances));

  // One live budget shared by every instance: the study has a single
  // deadline/evaluation pool, not one per instance.
  runtime::BudgetTracker tracker(config.budget);

  // Fork one stream per instance serially so instance i sees the same
  // randomness no matter how many threads run the loop below — and no
  // matter whether this run started from scratch or resumed a checkpoint.
  Rng master(config.seed);
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(config.instances));
  for (int inst = 0; inst < config.instances; ++inst) {
    streams.push_back(master.fork());
  }

  // Crash-safe resume: validate (or create) the manifest, then reload every
  // instance file present. Presence == complete (saves are atomic and only
  // happen after a full, unstopped search), so anything missing is simply
  // recomputed below from its deterministic stream.
  std::vector<char> done(static_cast<std::size_t>(config.instances), 0);
  const bool checkpointing = !config.checkpoint_dir.empty();
  if (checkpointing) {
    const StudyFingerprint fp{mixer.dim(), config.seed, config.instances,
                              config.max_rounds, mixer.name()};
    std::filesystem::create_directories(config.checkpoint_dir);
    if (std::filesystem::exists(manifest_path(config.checkpoint_dir))) {
      check_manifest(config.checkpoint_dir, fp);
    } else {
      write_manifest(config.checkpoint_dir, fp);
    }
    std::size_t resumed = 0;
    for (int inst = 0; inst < config.instances; ++inst) {
      std::optional<std::vector<AngleSchedule>> saved =
          load_instance(config.checkpoint_dir, inst);
      if (!saved) continue;
      result.schedules[static_cast<std::size_t>(inst)] = std::move(*saved);
      done[static_cast<std::size_t>(inst)] = 1;
      ++resumed;
    }
    FASTQAOA_OBS_COUNT_GLOBAL("runtime.checkpoint.resumed_instances",
                              resumed);
  }

  const int team = resolve_threads(config.threads, config.instances);
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic) num_threads(team) \
    if (config.instances > 1)
  for (int inst = 0; inst < config.instances; ++inst) {
    try {
      FASTQAOA_TRACE_SPAN("ensemble_instance");
      const auto instance_start =
          std::chrono::steady_clock::now();
      Rng instance_rng = streams[static_cast<std::size_t>(inst)];
      if (FASTQAOA_FAULT_FIRE("study.factory_throw", inst)) {
        throw Error("run_ensemble: injected factory failure (instance " +
                    std::to_string(inst) + ")");
      }
      dvec table = factory(instance_rng);
      FASTQAOA_CHECK(table.size() == mixer.dim(),
                     "run_ensemble: factory table does not match mixer "
                     "dimension");

      FindAnglesOptions opt = config.angle_options;
      // Per-instance angle-finder stream, still derived from the study seed.
      opt.seed = instance_rng();
      // Per-instance checkpoints would race on one file; studies persist
      // whole instances into checkpoint_dir instead.
      opt.checkpoint_file.clear();
      opt.shared_tracker = &tracker;

      const bool already_done = done[static_cast<std::size_t>(inst)] != 0;
      std::vector<AngleSchedule> schedules;
      if (already_done) {
        // Resumed from the checkpoint; the stream draws above still ran so
        // every other instance sees identical randomness.
        schedules = result.schedules[static_cast<std::size_t>(inst)];
      } else {
        if (tracker.check() != runtime::StopReason::None) {
          // Budget tripped before this instance started: leave it
          // incomplete (empty schedules) instead of burning its first BFGS
          // iteration per round.
          result.ratios[static_cast<std::size_t>(inst)].clear();
          continue;
        }
        schedules = find_angles(mixer, table, config.max_rounds, opt);
      }

      std::vector<double> inst_ratios;
      inst_ratios.reserve(schedules.size());
      for (const AngleSchedule& s : schedules) {
        inst_ratios.push_back(
            approximation_ratio(s.expectation, table, opt.direction));
      }
      const bool complete =
          static_cast<int>(schedules.size()) == config.max_rounds &&
          (schedules.empty() || !schedules.back().stopped_early());
      result.schedules[static_cast<std::size_t>(inst)] = std::move(schedules);
      result.ratios[static_cast<std::size_t>(inst)] = std::move(inst_ratios);
      if (complete && !already_done) {
        done[static_cast<std::size_t>(inst)] = 1;
        if (checkpointing) {
          save_instance(config.checkpoint_dir, inst,
                        result.schedules[static_cast<std::size_t>(inst)]);
          if (FASTQAOA_FAULT_FIRE("study.crash_after_instance", inst)) {
            // Simulated hard kill right after the instance checkpoint
            // landed — the scenario the resume path must survive.
            std::_Exit(137);
          }
        }
      } else if (complete) {
        done[static_cast<std::size_t>(inst)] = 1;
      }
      FASTQAOA_OBS_HIST_GLOBAL(
          "study.ensemble.instance.seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        instance_start)
              .count());
    } catch (...) {
#pragma omp critical(fastqaoa_ensemble_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);

  for (int inst = 0; inst < config.instances; ++inst) {
    if (done[static_cast<std::size_t>(inst)] != 0) {
      ++result.completed_instances;
    }
  }
  result.stop_reason = tracker.check();

  // Aggregate over whatever data exists per round: under a tripped budget
  // some instances have fewer (or zero) rounds, and a round nobody reached
  // reports an empty SampleStats (count == 0) rather than throwing.
  result.per_round.reserve(static_cast<std::size_t>(config.max_rounds));
  for (int p = 1; p <= config.max_rounds; ++p) {
    std::vector<double> column;
    column.reserve(static_cast<std::size_t>(config.instances));
    for (const auto& inst : result.ratios) {
      if (inst.size() >= static_cast<std::size_t>(p)) {
        column.push_back(inst[static_cast<std::size_t>(p - 1)]);
      }
    }
    result.per_round.push_back(column.empty() ? SampleStats{}
                                              : sample_stats(column));
  }
  return result;
}

MedianTransferResult median_angle_transfer(const Mixer& mixer,
                                           const InstanceFactory& factory,
                                           int p, int restarts,
                                           const EnsembleConfig& config) {
  FASTQAOA_CHECK(config.instances >= 1,
                 "median_angle_transfer: need >= 1 instance");
  FASTQAOA_CHECK(p >= 1 && restarts >= 1,
                 "median_angle_transfer: bad p/restarts");

  Rng master(config.seed);
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(config.instances));
  for (int inst = 0; inst < config.instances; ++inst) {
    streams.push_back(master.fork());
  }

  std::vector<dvec> tables(static_cast<std::size_t>(config.instances));
  std::vector<std::vector<double>> angle_sets(
      static_cast<std::size_t>(config.instances));
  std::vector<double> donor_ratios(static_cast<std::size_t>(config.instances));

  const int team = resolve_threads(config.threads, config.instances);
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic) num_threads(team) \
    if (config.instances > 1)
  for (int inst = 0; inst < config.instances; ++inst) {
    try {
      Rng instance_rng = streams[static_cast<std::size_t>(inst)];
      dvec table = factory(instance_rng);
      FindAnglesOptions opt = config.angle_options;
      opt.seed = instance_rng();
      AngleSchedule s = find_angles_random(mixer, table, p, restarts, opt);
      donor_ratios[static_cast<std::size_t>(inst)] =
          approximation_ratio(s.expectation, table, opt.direction);
      angle_sets[static_cast<std::size_t>(inst)] = s.packed();
      tables[static_cast<std::size_t>(inst)] = std::move(table);
    } catch (...) {
#pragma omp critical(fastqaoa_transfer_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);

  MedianTransferResult result;
  result.median_packed = median_angles(angle_sets);
  result.donor_ratios = sample_stats(donor_ratios);

  std::vector<double> transfer(tables.size());
#pragma omp parallel for schedule(dynamic) num_threads(team) \
    if (tables.size() > 1)
  for (std::ptrdiff_t i = 0;
       i < static_cast<std::ptrdiff_t>(tables.size()); ++i) {
    try {
      const double e = evaluate_angles(
          mixer, tables[static_cast<std::size_t>(i)], result.median_packed,
          config.angle_options.phase_values);
      transfer[static_cast<std::size_t>(i)] = approximation_ratio(
          e, tables[static_cast<std::size_t>(i)],
          config.angle_options.direction);
    } catch (...) {
#pragma omp critical(fastqaoa_transfer_eval_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  result.transfer_ratios = sample_stats(transfer);
  return result;
}

}  // namespace fastqaoa
