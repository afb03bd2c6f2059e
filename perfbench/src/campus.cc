// campus_updates: the durable object-oriented write path.
//
// A JournaledDatabase with default StorageOptions (fsync per commit,
// auto-checkpoint every 64 commits) over a schema in the style of the
// paper's Example 3.1: STUDENT and PROFESSOR isa PERSON, TA isa both
// (multiple inheritance through a common ancestor), SCHOOL.dean a shared
// PROFESSOR object, an ADVISES association, a set-valued data function
// ROSTER (each professor's advisees), a persistent recursive LINEAGE rule
// and two denials.
//
// The load is a seeded stream of LOGRES modules applied with
// JournaledDatabase::ApplySource, one per operation, in a fixed cycle of
// 16: six RIDV enrolments (two students each), four graduations by head
// deletion (three students each — the population stays constant, so
// latency does not drift with run length), a rule that invents GROUP
// objects (one per tutor of a course) and a head deletion that disbands
// them, a
// RADV/RDDV pair that adds and then removes a derived view, and two
// applications that must be rejected and rolled back: one violates a
// denial (a lineage cycle or an unknown school), one breaks referential
// integrity (deleting a dean or a TA others depend on).
//
// It is the only workload where parse, typecheck, invention, deletion,
// undo-log rollback, journal fsync and checkpoint all sit on the critical
// path; every accepted RIDV/RADV application also re-materializes the
// persistent rules for its consistency check.
//
// Oracles: each application must be accepted or rejected exactly as
// scripted; at the end the live students and groups must match the
// benchmark's own model, and every recovered store must dump exactly as
// the store did before it was closed.

#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <string>

#include "bench.h"
#include "core/database.h"
#include "core/dump.h"
#include "core/parser.h"
#include "core/typecheck.h"
#include "layers.h"
#include "storage/journaled_database.h"
#include "workload.h"
#include "timing_io.h"
#include "trace.h"

namespace perfbench {
namespace {

using logres::ApplicationMode;

constexpr int kProfessors = 12;
constexpr int kTasPerLevel = 12;  // two levels of teaching assistants
constexpr int kStudents = 160;
constexpr int kCourses = 4;
constexpr int kEnrolBatch = 2;
constexpr int kGraduateBatch = 3;
constexpr int kWarmupOps = 64;           // four cycles: every view variant
constexpr uint64_t kRecoverRecords = 32;  // journal records replayed by Open
constexpr int kMaxFillOps = 256;         // > 64 commits' worth of the cycle
// Population checks: EDB facts at every recovery point stay within
// kFactsBand of the first (recovery points fall at different positions of
// the cycle, where enrolments and graduations are not yet balanced), and
// the latency drift ratio stays within [kDriftLow, kDriftHigh].
constexpr double kFactsBand = 0.1;
constexpr double kDriftLow = 0.5;
constexpr double kDriftHigh = 2.0;
// The untraced loop pauses after each of kSlices slices for
// kSetupsPerPause set-up samples and kRecoveriesPerPause recovery samples.
constexpr int kSlices = 20;
constexpr int kSetupsPerPause = 1;
constexpr int kRecoveriesPerPause = 1;

const char* const kSchools[] = {"informatica", "matematica", "fisica",
                                "chimica"};

constexpr char kSchema[] = R"(
classes
  PERSON = (name: string, address: string);
  STUDENT = (PERSON, studschool: string);
  STUDENT isa PERSON;
  PROFESSOR = (PERSON, course: string);
  PROFESSOR isa PERSON;
  TA = (STUDENT, PROFESSOR);
  TA isa STUDENT;
  TA isa PROFESSOR;
  SCHOOL = (sname: string, dean: PROFESSOR);
  GROUP = (gname: string, tutor: PROFESSOR);
associations
  ADVISES = (professor: PROFESSOR, student: STUDENT);
  LINEAGE = (senior: PERSON, junior: PERSON);
  MENTORS = (senior: PROFESSOR, junior: TA, course: string);
functions
  ROSTER: PROFESSOR -> {string};
rules
  lineage(senior: P, junior: S) <- advises(professor: P, student: S).
  lineage(senior: P, junior: S) <- lineage(senior: P, junior: T),
                                   advises(professor: T, student: S).
  member(N, roster(P)) <- advises(professor: P, student: S),
                          student(self S, name: N).
  <- lineage(senior: P, junior: P).
  <- student(studschool: W), not school(sname: W).
)";

constexpr size_t kPersistentRules = 5;  // in kSchema, denials included

// Applications in one cycle: E enrol, G graduate, F form groups,
// B disband groups, V add view (RADV), W drop view (RDDV), X denial
// violation, Y referential-integrity violation.
constexpr char kCycle[] = "EGEFEXEGVEGBEWYG";

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

struct Op {
  char kind = 'E';
  ApplicationMode mode = ApplicationMode::kRIDV;
  std::string source;
  bool expect_reject = false;
  std::vector<std::string> enrolled;   // E: new student names
  size_t graduated = 0;                // G: students leaving the FIFO front
  std::string group;                   // F: cohort formed; B: disbanded
};

// The campus population and the seeded generator of the module stream.
// The model is the oracle's view of the state: it is updated only when
// an application is acknowledged.
class Campus {
 public:
  explicit Campus(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kProfessors; ++i) {
      professors_.push_back("p" + std::to_string(i));
      course_of_[professors_.back()] = Course();
    }
    std::vector<std::string> shuffled = professors_;
    std::shuffle(shuffled.begin(), shuffled.end(), rng_);
    for (const char* school : kSchools) {
      deans_.push_back(shuffled[deans_.size()]);
      dean_of_[school] = deans_.back();
    }
    for (int level = 0; level < 2; ++level) {
      for (int i = 0; i < kTasPerLevel; ++i) {
        const std::string ta = "t" + std::to_string(level * kTasPerLevel + i);
        const std::string advisor =
            level == 0 ? Pick(professors_) : Pick(level1_tas_);
        ta_advisor_[ta] = advisor;
        course_of_[ta] = Course();
        school_of_[ta] = School();
        (level == 0 ? level1_tas_ : level2_tas_).push_back(ta);
        if (level == 1) referenced_tas_.insert(advisor);
      }
    }
    advisors_ = professors_;
    advisors_.insert(advisors_.end(), level1_tas_.begin(), level1_tas_.end());
    advisors_.insert(advisors_.end(), level2_tas_.begin(), level2_tas_.end());
    for (int i = 0; i < kStudents; ++i) {
      const std::string s = NewStudent();
      student_advisor_[s] = Pick(advisors_);
      student_school_[s] = School();
      students_.push_back(s);
    }
  }

  /// The initial state, built through the host API.
  logres::Database Build() const {
    auto created = logres::Database::Create(kSchema);
    if (!created.ok()) throw SetupError{created.status().ToString()};
    logres::Database db = std::move(created).value();
    std::map<std::string, logres::Oid> oid;
    auto check = [](const logres::Status& st) {
      if (!st.ok()) throw SetupError{st.ToString()};
    };
    auto insert = [&](const std::string& cls, const std::string& name,
                      std::vector<std::pair<std::string, logres::Value>> rest) {
      std::vector<std::pair<std::string, logres::Value>> fields = {
          {"name", logres::Value::String(name)},
          {"address", logres::Value::String(Address(name))}};
      fields.insert(fields.end(), rest.begin(), rest.end());
      auto id = db.InsertObject(cls, logres::Value::MakeTuple(std::move(fields)));
      check(id.status());
      oid[name] = *id;
    };
    auto advise = [&](const std::string& p, const std::string& s) {
      check(db.InsertTuple(
          "ADVISES",
          logres::Value::MakeTuple({{"professor", logres::Value::MakeOid(oid.at(p))},
                                    {"student", logres::Value::MakeOid(oid.at(s))}})));
    };
    for (const std::string& p : professors_) {
      insert("PROFESSOR", p, {{"course", logres::Value::String(course_of_.at(p))}});
    }
    for (const auto* level : {&level1_tas_, &level2_tas_}) {
      for (const std::string& t : *level) {
        insert("TA", t, {{"studschool", logres::Value::String(school_of_.at(t))},
                         {"course", logres::Value::String(course_of_.at(t))}});
        advise(ta_advisor_.at(t), t);
      }
    }
    for (const char* school : kSchools) {
      auto id = db.InsertObject(
          "SCHOOL", logres::Value::MakeTuple(
                        {{"sname", logres::Value::String(school)},
                         {"dean", logres::Value::MakeOid(oid.at(dean_of_.at(school)))}}));
      check(id.status());
    }
    for (const std::string& s : students_) {
      insert("STUDENT", s,
             {{"studschool", logres::Value::String(student_school_.at(s))}});
      advise(student_advisor_.at(s), s);
    }
    return db;
  }

  /// The next application of the stream.
  Op Next() {
    Op op;
    op.kind = kCycle[position_ % (sizeof(kCycle) - 1)];
    const uint64_t cycle = position_ / (sizeof(kCycle) - 1);
    ++position_;
    std::string& src = op.source;
    src = "rules\n";
    switch (op.kind) {
      case 'E': {
        for (int i = 0; i < kEnrolBatch; ++i) {
          const std::string s = NewStudent();
          op.enrolled.push_back(s);
          src += "  student(name: " + Quote(s) + ", address: " +
                 Quote(Address(s)) + ", studschool: " + Quote(School()) + ").\n";
        }
        for (const std::string& s : op.enrolled) {
          src += "  advises(professor: P, student: S) <- professor(self P, name: " +
                 Quote(Pick(advisors_)) + "), student(self S, name: " + Quote(s) +
                 ").\n";
        }
        break;
      }
      case 'G': {
        op.graduated = std::min<size_t>(kGraduateBatch, students_.size());
        for (size_t i = 0; i < op.graduated; ++i) {
          const std::string name = Quote(students_[i]);
          src += "  not advises(professor: P, student: S) <- advises(professor: P, "
                 "student: S), student(self S, name: " + name + ").\n";
          src += "  not person(self S) <- student(self S, name: " + name + ").\n";
        }
        break;
      }
      case 'F': {
        op.group = "g" + std::to_string(cycle);
        src += "  group(self G, gname: " + Quote(op.group) +
               ", tutor: P) <- professor(self P, course: " + Quote(Course()) +
               ").\n";
        break;
      }
      case 'B': {
        if (!groups_.empty()) op.group = groups_.front();
        src += "  not group(self G) <- group(self G, gname: " + Quote(op.group) +
               ").\n";
        break;
      }
      case 'V':
      case 'W': {
        // One view variant per cycle, rotating, so each variant's
        // materialized MENTORS tuples reach their (constant) steady state
        // within the warm-up.
        op.mode = op.kind == 'V' ? ApplicationMode::kRADV : ApplicationMode::kRDDV;
        const std::string course = Quote("c" + std::to_string(cycle % kCourses));
        src += "  mentors(senior: P, junior: T, course: " + course +
               ") <- advises(professor: P, student: T), ta(self T),\n"
               "      professor(self P, course: " + course + ").\n";
        break;
      }
      case 'X': {
        op.expect_reject = true;
        switch (rng_() % 3) {
          case 0: {  // a TA advising itself: lineage cycle
            const std::string t = Quote(Pick(level1_tas_));
            src += "  advises(professor: T, student: S) <- ta(self T, name: " + t +
                   "), ta(self S, name: " + t + ").\n";
            break;
          }
          case 1: {  // a TA advising its own advisor: lineage cycle
            const std::string t = Pick(level2_tas_);
            src += "  advises(professor: T, student: S) <- ta(self T, name: " +
                   Quote(t) + "), ta(self S, name: " + Quote(ta_advisor_.at(t)) +
                   ").\n";
            break;
          }
          default: {  // enrolment into a school that does not exist
            const std::string s = "x" + std::to_string(position_);
            src += "  student(name: " + Quote(s) + ", address: " + Quote(Address(s)) +
                   ", studschool: \"closed\").\n";
            break;
          }
        }
        break;
      }
      case 'Y': {
        op.expect_reject = true;
        // Deleting a dean leaves SCHOOL.dean dangling; deleting a TA who
        // advises others leaves ADVISES dangling.
        std::string victim = Pick(deans_);
        if (rng_() % 2 == 1) {
          std::vector<std::string> tas(referenced_tas_.begin(), referenced_tas_.end());
          victim = Pick(tas);
        }
        src += "  not person(self P) <- professor(self P, name: " + Quote(victim) +
               ").\n";
        break;
      }
    }
    return op;
  }

  /// Updates the model after an acknowledged application.
  void Commit(const Op& op) {
    for (const std::string& s : op.enrolled) students_.push_back(s);
    for (size_t i = 0; i < op.graduated; ++i) students_.pop_front();
    if (op.kind == 'F') groups_.push_back(op.group);
    if (op.kind == 'B' && !groups_.empty() && groups_.front() == op.group) {
      groups_.pop_front();
    }
    if (op.kind == 'V' || op.kind == 'W') view_active_ = op.kind == 'V';
  }

  /// Checks the live students and groups of `db` against the model.
  void Verify(const logres::Database& db, RunResult* result) const {
    std::set<std::string> students, groups;
    const logres::Instance& edb = db.edb();
    const std::set<logres::Oid>& tas = edb.OidsOf("TA");
    auto label = [&](logres::Oid oid, const char* field) -> std::string {
      auto v = edb.OValue(oid);
      const logres::Value* f = v.ok() ? v->FindFieldRef(field) : nullptr;
      return f != nullptr && f->kind() == logres::ValueKind::kString
                 ? f->string_value()
                 : "<missing " + std::string(field) + ">";
    };
    for (logres::Oid oid : edb.OidsOf("STUDENT")) {
      if (!tas.count(oid)) students.insert(label(oid, "name"));
    }
    for (logres::Oid oid : edb.OidsOf("GROUP")) groups.insert(label(oid, "gname"));
    const size_t rules = kPersistentRules + (view_active_ ? 1 : 0);
    if (db.rules().size() != rules) {
      result->Fail("persistent rules: " + std::to_string(db.rules().size()) +
                   ", expected " + std::to_string(rules));
    }
    if (students != std::set<std::string>(students_.begin(), students_.end())) {
      result->Fail("live students differ from the model (" +
                   std::to_string(students.size()) + " vs " +
                   std::to_string(students_.size()) + ")");
    }
    for (const std::string& g : groups) {
      if (std::find(groups_.begin(), groups_.end(), g) == groups_.end()) {
        result->Fail("group cohort " + g + " should have been disbanded");
      }
    }
  }

 private:
  std::string NewStudent() {
    return std::string("s") + std::to_string(next_student_++);
  }
  std::string Course() { return "c" + std::to_string(rng_() % kCourses); }
  std::string School() { return kSchools[rng_() % 4]; }
  std::string Address(const std::string& name) const {
    return "via " + name + " " + std::to_string(name.size() * 7 % 90 + 1);
  }
  const std::string& Pick(const std::vector<std::string>& from) {
    return from[rng_() % from.size()];
  }

  std::mt19937_64 rng_;
  std::vector<std::string> professors_, deans_, level1_tas_, level2_tas_,
      advisors_;
  std::set<std::string> referenced_tas_;
  std::map<std::string, std::string> course_of_, school_of_, ta_advisor_,
      dean_of_, student_advisor_, student_school_;
  std::deque<std::string> students_;
  std::deque<std::string> groups_;
  bool view_active_ = false;
  uint64_t next_student_ = 0;
  uint64_t position_ = 0;
};

// One application and what the oracle and the per-layer numbers need.
struct Applied {
  bool accepted = false;
  bool as_scripted = false;
  std::string error;
  logres::EvalStats stats;
  double ms = 0;
};

Applied ApplyOp(logres::JournaledDatabase* store, const Op& op,
                Tracer* tracer) {
  Applied out;
  const Clock::time_point start = Clock::now();
  logres::Result<logres::ModuleResult> r = [&] {
    Span span(tracer, kLayerStorage, "JournaledDatabase::ApplySource");
    return store->ApplySource(op.source, op.mode);
  }();
  out.ms = MicrosSince(start) / 1000.0;
  out.accepted = r.ok();
  if (r.ok()) {
    out.stats = r->stats;
    out.as_scripted = !op.expect_reject;
    if (!out.as_scripted) out.error = "accepted a scripted violation";
  } else {
    out.error = r.status().ToString();
    out.as_scripted = op.expect_reject &&
                      r.status().code() == logres::StatusCode::kConstraintViolation;
  }
  return out;
}

// Per-layer probes around one application: the module's parse and
// typecheck, and the consistency fixpoint (Database::Materialize on the
// post-application state). They time layer calls that ApplySource makes
// internally; they run outside the operation's root span.
struct Probes {
  std::vector<double> parse_us, typecheck_us, materialize_us, source_bytes,
      rules;

  void Run(const logres::Database& db, const Op& op, Tracer* tracer,
           RunResult* result) {
    source_bytes.push_back(static_cast<double>(op.source.size()));
    std::optional<logres::Result<logres::ParsedUnit>> unit;
    {
      Span span(tracer, kLayerParser, "probe Parse");
      const Clock::time_point t = Clock::now();
      unit.emplace(logres::Parse(op.source));
      parse_us.push_back(MicrosSince(t));
    }
    if (!unit->ok()) {
      result->Fail("module did not parse: " + unit->status().ToString());
      return;
    }
    logres::Schema schema = db.schema();
    std::vector<logres::FunctionDecl> functions = db.functions();
    bool declared = schema.Merge((*unit)->schema).ok();
    functions.insert(functions.end(), (*unit)->functions.begin(),
                     (*unit)->functions.end());
    for (const logres::FunctionDecl& fn : functions) {
      declared = declared && logres::DeclareBackingAssociation(&schema, fn).ok();
    }
    if (!declared) {
      result->Fail("module schema did not merge");
      return;
    }
    {
      Span span(tracer, kLayerTypecheck, "probe Typecheck");
      const Clock::time_point t = Clock::now();
      auto checked = logres::Typecheck(schema, functions, (*unit)->rules);
      typecheck_us.push_back(MicrosSince(t));
      // A scripted violation is well typed too; only evaluation rejects it.
      if (!checked.ok()) result->Fail("module did not typecheck");
    }
    rules.push_back(static_cast<double>((*unit)->rules.size()));
    Span span(tracer, kLayerEval, "probe Database::Materialize");
    const Clock::time_point t = Clock::now();
    auto instance = db.Materialize();
    materialize_us.push_back(MicrosSince(t));
    if (!instance.ok()) result->Fail("post-apply state does not materialize");
  }
};

}  // namespace

RunResult RunCampusUpdates(const Args& args) {
  RunResult result;
  TimingIo io;  // traced runs only: counts (and, in the traced half, spans)
  logres::StorageOptions storage_options;  // fsync per commit, checkpoint/64
  if (args.trace) storage_options.io = &io;

  // Set-up: generate the campus and create its durable store. Each sample
  // creates a store of its own; the first one serves the run.
  std::optional<Campus> campus;
  std::optional<logres::JournaledDatabase> store;
  std::vector<double> setup_s;
  int dirs = 0;
  auto new_dir = [&] { return args.work_dir + "/store" + std::to_string(dirs++); };
  auto setup = [&](bool keep) {
    const std::string dir = new_dir();
    setup_s.push_back(TimeSeconds([&] {
      Campus generated(args.seed);
      auto created = logres::JournaledDatabase::Create(dir, generated.Build(),
                                                       storage_options);
      if (!created.ok()) throw SetupError{created.status().ToString()};
      if (keep) {
        campus.emplace(std::move(generated));
        store.emplace(std::move(created).value());
      }
    }));
    if (!keep) std::filesystem::remove_all(dir);
  };
  setup(true);
  const std::string live_dir = args.work_dir + "/store0";

  auto apply = [&](Tracer* tracer) {
    const Op op = campus->Next();
    Applied applied = ApplyOp(&*store, op, tracer);
    ++result.attempted;
    if (!applied.as_scripted) {
      result.Fail(std::string("application ") + op.kind + ": " + applied.error);
    }
    if (applied.accepted) campus->Commit(op);
    return std::make_pair(op, applied);
  };

  // Recovery sample: continue the stream, untimed, until the journal
  // holds a fixed number of records past the last checkpoint (so every
  // sample replays the same work), copy the store and recover the copy.
  RecoverySampler recovery;
  double first_facts = 0;
  auto recover = [&](TimingIo* sample_io) {
    for (int i = 0; store->status().journal_records != kRecoverRecords; ++i) {
      if (i == kMaxFillOps) {
        result.Fail("journal never reached " + std::to_string(kRecoverRecords) +
                    " records");
        return;
      }
      apply(nullptr);
    }
    campus->Verify(store->db(), &result);
    const double facts = static_cast<double>(store->db().edb().TotalFacts());
    if (first_facts == 0) first_facts = facts;
    result.notes.push_back("EDB facts at recovery point: " +
                           std::to_string(static_cast<uint64_t>(facts)));
    if (facts < (1 - kFactsBand) * first_facts ||
        facts > (1 + kFactsBand) * first_facts) {
      result.Fail("population drifted: " + std::to_string(facts) +
                  " EDB facts, " + std::to_string(first_facts) + " at first");
    }
    const std::string copy = new_dir();
    std::filesystem::copy(live_dir, copy, std::filesystem::copy_options::recursive);
    recovery.Sample(copy, logres::DumpDatabase(store->db()),
                    sample_io != nullptr ? 1 : kRecoveriesPerPause, sample_io,
                    &result);
    std::filesystem::remove_all(copy);
  };
  auto pause = [&] {
    for (int i = 0; i < kSetupsPerPause; ++i) setup(false);
    recover(nullptr);
  };

  for (int i = 0; i < kWarmupOps; ++i) apply(nullptr);

  std::map<char, std::vector<double>> by_kind;
  const std::vector<double> latencies_ms = ClosedLoop(
      args.trace ? args.seconds / 2 : args.seconds, args.trace ? 1 : kSlices,
      [&] {
        const auto [op, applied] = apply(nullptr);
        by_kind[op.kind].push_back(applied.ms);
        return applied.ms;
      },
      args.trace ? std::function<void()>([] {}) : pause);
  std::string kinds = "median latency by application kind (ms):";
  for (const auto& [kind, ms] : by_kind) {
    kinds += std::string(" ") + kind + "=" + std::to_string(Median(ms));
  }
  result.notes.push_back(kinds);
  // Drift: the one workload whose population changes must not grow or
  // shrink with run length. The model and fact-count checks in recover()
  // catch that directly; the latency band is a wide backstop, because a
  // shared machine shows speed phases of up to ~1.8x on its own.
  const double drift = DriftRatio(latencies_ms);
  if (drift < kDriftLow || drift > kDriftHigh) {
    result.correct = false;
    result.notes.push_back("drift: second-half median / first-half median = " +
                           std::to_string(drift));
  }

  if (!args.trace) {
    result.Set("setup_s", Median(setup_s));
    recovery.Report(&result);
    FinishUntraced(latencies_ms, &result);
    return result;
  }

  Tracer tracer;
  io.set_tracer(&tracer);
  Probes probes;
  EvalStatsSampler eval_stats;
  InternerSampler interner;
  std::vector<double> update_us, rollback_ms, io_us, plain_ms,
      checkpoint_ms, sync_us;
  double rejected = 0, checkpoints = 0, acked_bytes = 0;
  IoCounters totals;
  const std::vector<double> traced_ms = ClosedLoop(
      args.seconds / 2, 1,
      [&] {
        const uint64_t checkpoint_before = store->status().checkpoint_seq;
        io.Reset();
        interner.Before();
        const Clock::time_point start = Clock::now();
        std::pair<Op, Applied> step;
        {
          OpScope op(&tracer, "apply");
          step = apply(&tracer);
        }
        const double ms = MicrosSince(start) / 1000.0;
        interner.After();
        const auto& [op, applied] = step;
        const IoCounters& c = io.counters();
        if (applied.accepted) {
          eval_stats.Add(applied.stats);
          update_us.push_back(static_cast<double>(applied.stats.elapsed_micros));
          io_us.push_back(c.total_us);
          acked_bytes += static_cast<double>(op.source.size());
          totals.writes += c.writes;
          totals.write_bytes += c.write_bytes;
          totals.syncs += c.syncs;
          totals.renames += c.renames;
          sync_us.insert(sync_us.end(), c.sync_us.begin(), c.sync_us.end());
          if (store->status().checkpoint_seq != checkpoint_before) {
            ++checkpoints;
            checkpoint_ms.push_back(applied.ms);
          } else {
            plain_ms.push_back(applied.ms);
          }
        } else {
          ++rejected;
          rollback_ms.push_back(applied.ms);
        }
        probes.Run(store->db(), op, &tracer, &result);
        return ms;
      },
      [] {});
  io.set_tracer(nullptr);
  const double acked = static_cast<double>(update_us.size());
  auto per_ack = [&](double total) { return acked > 0 ? total / acked : 0; };
  result.Set("parser.module_us", Median(probes.parse_us));
  result.Set("parser.source_bytes", Mean(probes.source_bytes));
  result.Set("typecheck.us", Median(probes.typecheck_us));
  result.Set("typecheck.rules", Mean(probes.rules));
  result.Set("eval.update_us", Median(update_us));
  result.Set("eval.materialize_us", Median(probes.materialize_us));
  eval_stats.Report(&result);
  interner.Report(&result);
  result.Set("eval.rejected", rejected);
  result.Set("eval.rollback_us", 1000.0 * Median(rollback_ms));
  result.Set("storage.io_us", Median(io_us));
  result.Set("storage.checkpoints", checkpoints);
  result.Set("storage.checkpoint_ms",
             checkpoint_ms.empty() ? 0 : Median(checkpoint_ms) - Median(plain_ms));
  result.Set("storage.write_amp",
             acked_bytes > 0 ? static_cast<double>(totals.write_bytes) / acked_bytes : 0);
  result.Set("io.writes", per_ack(static_cast<double>(totals.writes)));
  result.Set("io.write_bytes", per_ack(static_cast<double>(totals.write_bytes)));
  result.Set("io.syncs", per_ack(static_cast<double>(totals.syncs)));
  result.Set("io.sync_us", Median(sync_us));
  result.Set("io.renames", per_ack(static_cast<double>(totals.renames)));

  recover(&io);
  recovery.Report(&result);
  FinishTraced(args, tracer, latencies_ms, traced_ms, &result);
  return result;
}

}  // namespace perfbench
