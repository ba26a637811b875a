#include "api/solve_session.h"

#include <string_view>
#include <utility>

#include "api/solver_registry.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/serialization.h"
#include "obs/trace.h"
#include "storage/mmap_set_stream.h"
#include "stream/engine_context.h"
#include "stream/stream_adapters.h"
#include "util/stopwatch.h"

namespace streamsc {

namespace {

// The dynamic.* counter/gauge family: warm-start decisions and delta
// shape, stamped into every overlay run's report (and from there into any
// merged stats export, e.g. the daemon's Prometheus text).
CounterId DynWarmSolves() {
  static const CounterId id = CounterId::Counter("dynamic.warm_solves");
  return id;
}
CounterId DynColdSolves() {
  static const CounterId id = CounterId::Counter("dynamic.cold_solves");
  return id;
}
CounterId DynSurvivingPrefix() {
  static const CounterId id = CounterId::Gauge("dynamic.surviving_prefix");
  return id;
}
CounterId DynResidueElements() {
  static const CounterId id = CounterId::Gauge("dynamic.residue_elements");
  return id;
}
CounterId DynDeltaRecords() {
  static const CounterId id = CounterId::Gauge("dynamic.delta_records");
  return id;
}

// Warm start is refused when the delta invalidated at least half of the
// previous solution: re-covering that much residue approaches a cold
// solve's work anyway, and the cold path re-establishes a fresh memo.
constexpr std::size_t kWarmMinSurvivingNumer = 1;
constexpr std::size_t kWarmMinSurvivingDenom = 2;

// Splits args into (session, solver) halves by key: anything whose key
// names a session option is the session's; the rest goes to the solver.
void SplitArgs(const std::vector<std::string>& args,
               std::vector<std::string>* session_args,
               std::vector<std::string>* solver_args) {
  for (const std::string& arg : args) {
    const std::string key = arg.substr(0, arg.find('='));
    bool is_session = false;
    for (const OptionDescriptor& desc : SolveSession::SessionOptions()) {
      if (desc.name == key) {
        is_session = true;
        break;
      }
    }
    (is_session ? session_args : solver_args)->push_back(arg);
  }
}

// Projects the run's kPass spans (engine_context.h PassScope emissions)
// into the report's breakdown rows, in pass order. Quiesced-only read:
// called after the run returned and the engine's traced rendezvous
// guaranteed every worker retired its spans. \p since_ns scopes the
// projection to this run when the caller accumulates several runs into
// one recorder.
void FillPassBreakdown(const TraceRecorder& trace, std::int64_t since_ns,
                       SolveReport* report) {
  report->pass_breakdown.clear();
  trace.ForEachEvent([&](const TraceEvent& event) {
    if (event.category != TraceCategory::kPass) return;
    if (event.start_ns < since_ns) return;
    PassBreakdownRow row;
    row.name = event.name;
    row.wall_seconds = static_cast<double>(event.dur_ns) * 1e-9;
    for (unsigned char i = 0; i < event.num_args; ++i) {
      const std::string_view key = event.arg_names[i];
      const std::uint64_t value = event.arg_values[i];
      if (key == "items") {
        row.items_scanned = value;
      } else if (key == "shards") {
        row.shard_jobs = value;
      } else if (key == "takes") {
        row.sets_taken = value;
      } else if (key == "covered") {
        row.elements_covered = value;
      }
    }
    report->pass_breakdown.push_back(std::move(row));
  });
}

}  // namespace

const std::vector<OptionDescriptor>& SolveSession::SessionOptions() {
  static const std::vector<OptionDescriptor>* const kOptions =
      new std::vector<OptionDescriptor>{
          UintOptionMin(
              "threads", 1, 1,
              "worker pool width for engine-routed passes (1 = sequential; "
              "results are bit-identical for any value)"),
          UintOption(
              "memory_budget", 0,
              "byte cap on the per-run arena (0 = unlimited); a run that "
              "would exceed it returns RESOURCE_EXHAUSTED instead of "
              "allocating"),
          UintOption(
              "warm", 1,
              "overlay sources only: 1 (default) re-solves warm when a "
              "memoized solution's surviving prefix qualifies; 0 forces a "
              "cold solve")};
  return *kOptions;
}

StatusOr<SolveSession> SolveSession::Open(const std::string& path) {
  SolveSession session;
  const Status status = session.Reopen(path);
  if (!status.ok()) return status;
  return session;
}

Status SolveSession::Reopen(const std::string& path) {
  // Detach the old source first: a failed open must leave an *empty*
  // session, not one half-bound to the previous stream (or carrying a
  // stale memory-upgraded system / text-parse error). The run arena is
  // deliberately kept — it is per-session capacity, reset before every
  // run, and keeping it warm is the point of reopening in place.
  source_ = Source::kNone;
  path_.clear();
  stream_.reset();
  owned_system_.reset();
  overlay_ = nullptr;
  memo_.clear();
  memo_valid_ = false;
  if (IsBinaryInstanceFile(path)) {
    auto stream = std::make_unique<MmapSetStream>(path);
    if (!stream->status().ok()) return stream->status();
    stream_ = std::move(stream);
    source_ = Source::kMmap;
    path_ = path;
    return Status::Ok();
  }
  auto stream = std::make_unique<FileSetStream>(path);
  if (!stream->status().ok()) return stream->status();
  stream_ = std::move(stream);
  source_ = Source::kFile;
  path_ = path;
  return Status::Ok();
}

StatusOr<SolveSession> SolveSession::OpenOverlay(
    const std::string& base_path, const std::string& delta_path) {
  auto overlay = std::make_unique<OverlaySetStream>(base_path, delta_path);
  if (!overlay->status().ok()) return overlay->status();
  SolveSession session;
  session.overlay_ = overlay.get();
  session.stream_ = std::move(overlay);
  session.source_ = Source::kOverlay;
  return session;
}

Status SolveSession::RefreshDelta() {
  if (overlay_ == nullptr) {
    return Status::FailedPrecondition(
        "SolveSession: RefreshDelta() on a non-overlay source (use "
        "OpenOverlay())");
  }
  // The memo is deliberately kept across an append-only refresh: per-slot
  // versions decide at the next Solve() which chosen sets survived this
  // delta. But versions only identify content within one log lineage — if
  // the log *shrank* (a re-created delta file), a memoized (slot, version)
  // pair may alias unrelated content, so the memo is dropped and the next
  // Solve() runs cold. A failed refresh also drops it: the overlay
  // retained its previous composition, but the caller was told the file
  // is suspect and a stale warm hint is not worth carrying across that.
  const std::uint64_t records_before = overlay_->delta_records();
  const std::uint64_t slots_before = overlay_->num_slots();
  const Status refreshed = overlay_->RefreshDelta();
  if (!refreshed.ok() || overlay_->delta_records() < records_before ||
      overlay_->num_slots() < slots_before) {
    memo_.clear();
    memo_valid_ = false;
  }
  return refreshed;
}

SolveSession SolveSession::OverSystem(const SetSystem& system) {
  SolveSession session;
  session.stream_ = std::make_unique<VectorSetStream>(system);
  session.source_ = Source::kMemory;
  return session;
}

SolveSession SolveSession::OverStream(std::unique_ptr<SetStream> stream,
                                      Source source) {
  SolveSession session;
  session.stream_ = std::move(stream);
  session.source_ = source;
  return session;
}

const char* SolveSession::source_name() const {
  switch (source_) {
    case Source::kNone:
      return "none";
    case Source::kMemory:
      return "memory";
    case Source::kFile:
      return "file";
    case Source::kMmap:
      return "mmap";
    case Source::kOverlay:
      return "overlay";
  }
  return "none";
}

std::size_t SolveSession::universe_size() const {
  return stream_ == nullptr ? 0 : stream_->universe_size();
}

std::size_t SolveSession::num_sets() const {
  return stream_ == nullptr ? 0 : stream_->num_sets();
}

Status SolveSession::EnsureBufferable() {
  if (stream_->ItemsRemainValid()) return Status::Ok();
  // Only the text source can be unbufferable; materialize it once. The
  // pass counter restarts with the new stream, which is fine: solvers
  // report pass *deltas*.
  StatusOr<SetSystem> loaded = LoadSetSystem(path_);
  if (!loaded.ok()) return loaded.status();
  owned_system_ = std::make_unique<SetSystem>(std::move(*loaded));
  stream_ = std::make_unique<VectorSetStream>(*owned_system_);
  source_ = Source::kMemory;
  return Status::Ok();
}

StatusOr<SolveReport> SolveSession::Solve(
    const std::string& solver, const std::vector<std::string>& args) {
  if (stream_ == nullptr) {
    return Status::FailedPrecondition(
        "SolveSession: Solve() on an empty session (use Open() or "
        "OverSystem())");
  }
  // An overlay that never composed is an error, not an empty instance: a
  // caller that ignored OpenOverlay()'s status must not get a trivially
  // "feasible" cover over zero sets (which would then seed the memo).
  if (overlay_ != nullptr && !overlay_->status().ok()) {
    return overlay_->status();
  }

  std::vector<std::string> session_args;
  std::vector<std::string> solver_args;
  SplitArgs(args, &session_args, &solver_args);

  StatusOr<ParsedOptions> session_options =
      ParseOptions("session", SessionOptions(), session_args);
  if (!session_options.ok()) return session_options.status();
  const std::size_t threads =
      static_cast<std::size_t>(session_options->Uint("threads"));
  const std::size_t memory_budget =
      static_cast<std::size_t>(session_options->Uint("memory_budget"));

  StatusOr<std::unique_ptr<AnySolver>> created =
      SolverRegistry::Global().Create(solver, solver_args);
  if (!created.ok()) return created.status();

  // Warm-start decision (overlay sources only). Eligible when the memo
  // answers for this exact (solver, options) configuration; taken when
  // the surviving prefix is large enough that re-covering the residue
  // beats a cold solve.
  std::vector<SetId> warm_prefix;
  bool warm = false;
  if (overlay_ != nullptr && session_options->Uint("warm") != 0 &&
      memo_valid_ && memo_solver_ == solver &&
      memo_solver_args_ == solver_args) {
    warm_prefix = SurvivingPrefix();
    warm = kWarmMinSurvivingDenom * warm_prefix.size() >=
           kWarmMinSurvivingNumer * memo_.size();
  }

  if (threads > 1) {
    const Status status = EnsureBufferable();
    if (!status.ok()) return status;
  }

  // The engine lives exactly as long as this run — the session is the
  // single owner of execution resources, which is what makes per-run
  // thread policy (and the ROADMAP's sharded/NUMA binding) one decision
  // in one place.
  const std::unique_ptr<ParallelPassEngine> engine = MakeEngine(threads);

  // One run arena per session, reset (chunk-retaining) per run: the first
  // run warms it up to its high-water mark, later runs of the same shape
  // allocate nothing.
  if (run_arena_ == nullptr) {
    run_arena_ = std::make_unique<MonotonicArena>();
  }
  run_arena_->Reset();
  run_arena_->ResetHighWater();
  run_arena_->set_budget(memory_budget);

  RunContext context;
  context.engine = engine.get();
  context.arena = run_arena_.get();
  context.trace = trace_;

  // Scopes the breakdown below to this run when the caller accumulates
  // several solves into one recorder.
  const std::int64_t run_start_ns =
      trace_ != nullptr ? TraceRecorder::NowNs() : 0;

  StatusOr<SolveReport> report = Status::Internal("solve did not run");
  try {
    const TraceSpan session_span(trace_, TraceCategory::kSession,
                                 "session.solve");
    report = warm ? RunWarmStart(warm_prefix, context)
                  : (*created)->Run(*stream_, context);
  } catch (const ArenaBudgetExceeded& e) {
    // Budget throws happen only on the orchestrator thread, outside any
    // in-flight parallel section (workers never touch the run arena), so
    // unwinding here leaves the engine and stream reusable.
    // With no memory_budget, the limit a solver planned against is the
    // host's physical memory.
    const std::string limit =
        memory_budget != 0 ? "memory_budget=" : "physical memory of ";
    return Status::ResourceExhausted(
        "solve '" + solver + "' exceeded " + limit +
        std::to_string(e.budget()) + " bytes (run arena would have reached " +
        std::to_string(e.attempted()) + " bytes)");
  }
  if (!report.ok()) return report.status();
  if (overlay_ != nullptr) {
    FinishOverlayRun(solver, solver_args, &*report);
  }
  report->source = source_name();
  report->threads = threads;
  report->arena_high_water = run_arena_->high_water();
  report->arena_reserved = run_arena_->bytes_reserved();
  // The arena peaks ride in the counter snapshot too, so a stats export
  // (obs/stats_sink.h) sees physical memory next to the engine counters.
  report->counters.RecordMax(CounterId::Gauge("arena.high_water_bytes"),
                             run_arena_->high_water());
  report->counters.RecordMax(CounterId::Gauge("arena.reserved_bytes"),
                             run_arena_->bytes_reserved());
  if (trace_ != nullptr) {
    FillPassBreakdown(*trace_, run_start_ns, &*report);
  }
  return report;
}

std::vector<SetId> SolveSession::SurvivingPrefix() const {
  std::vector<SetId> prefix;
  prefix.reserve(memo_.size());
  for (const MemoEntry& entry : memo_) {
    // A slot beyond the current table means the log shrank under us (a
    // re-created delta file) — the entry is dead, not in-range-by-
    // contract; never index the overlay with it. Otherwise the pair
    // survives iff the slot is live with an unchanged version.
    if (entry.slot >= overlay_->num_slots() ||
        !overlay_->slot_live(entry.slot) ||
        overlay_->slot_version(entry.slot) != entry.version) {
      break;
    }
    const SetId id = overlay_->slot_to_live(entry.slot);
    STREAMSC_CHECK(id != kInvalidSetId,
                   "live slot must map to a live id");
    prefix.push_back(id);
  }
  return prefix;
}

StatusOr<SolveReport> SolveSession::RunWarmStart(
    const std::vector<SetId>& prefix, const RunContext& context) {
  Stopwatch timer;
  EngineContext ctx(*stream_, context);
  const TraceSpan span(trace_, TraceCategory::kPhase, "dynamic.warm_resolve");
  const std::uint64_t passes_before = stream_->passes();

  // The surviving prefix is kept verbatim; subtracting it leaves exactly
  // the residue the delta exposed, which one cleanup pass re-covers. With
  // an unchanged delta the residue is empty and the previous solution is
  // reproduced byte-for-byte.
  DynamicBitset uncovered = DynamicBitset::Full(
      stream_->universe_size(), ctx.alloc<DynamicBitset::Word>());
  Solution solution(context.arena);
  solution.chosen.assign(prefix.begin(), prefix.end());
  ctx.RecordTakes(prefix.size(), 0);
  ctx.SubtractPass(std::span<const SetId>(prefix), uncovered);
  const std::uint64_t residue = uncovered.CountSet();
  if (!uncovered.None()) {
    ctx.CoverResiduePass(uncovered,
                         [&](SetId id) { solution.chosen.push_back(id); });
  }

  SolveReport report;
  report.solver = memo_solver_;
  report.algorithm = memo_algorithm_;
  report.kind = SolverKind::kSetCover;
  report.feasible = uncovered.None();
  report.passes = stream_->passes() - passes_before;
  report.peak_space_bytes =
      uncovered.ByteSize() + solution.chosen.size() * sizeof(SetId);
  report.solution = std::move(solution);
  report.counters.MergeFrom(ctx.counters());
  report.warm_start = true;
  report.surviving_prefix = prefix.size();
  report.residue_elements = residue;
  report.wall_seconds = timer.ElapsedSeconds();
  return report;
}

void SolveSession::FinishOverlayRun(const std::string& solver,
                                    const std::vector<std::string>& solver_args,
                                    SolveReport* report) {
  report->counters.Add(report->warm_start ? DynWarmSolves() : DynColdSolves(),
                       1);
  report->counters.RecordMax(DynDeltaRecords(), overlay_->delta_records());
  report->counters.RecordMax(DynSurvivingPrefix(), report->surviving_prefix);
  report->counters.RecordMax(DynResidueElements(), report->residue_elements);
  // Only a feasible set cover seeds the next warm start; anything else
  // leaves the existing memo intact (it still answers for its own
  // configuration).
  if (report->kind != SolverKind::kSetCover || !report->feasible) return;
  memo_.clear();
  memo_.reserve(report->solution.size());
  for (const SetId id : report->solution.chosen) {
    const std::uint64_t slot = overlay_->live_to_slot(id);
    memo_.push_back(MemoEntry{slot, overlay_->slot_version(slot)});
  }
  memo_solver_ = solver;
  memo_solver_args_ = solver_args;
  memo_algorithm_ = report->algorithm;
  memo_valid_ = true;
}

}  // namespace streamsc
