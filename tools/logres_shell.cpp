// logres_shell — an interactive driver for LOGRES databases.
//
// The paper's Section 5 envisions "a complete programming environment for
// LOGRES, with tools supporting the design, debugging, and monitoring of
// LOGRES databases and programs"; this shell is that environment's
// command line. It reads commands from stdin (or a script file given as
// argv[1]) and operates on one database.
//
// Commands:
//   load <file>            create the database from a source file
//   open <file>            restore a state saved with `save`
//   open -j <dir>          open a journaled store (checkpoint + WAL),
//                          running crash recovery; later `apply`s are
//                          durable (journaled + fsync'd before they are
//                          acknowledged)
//   save <file>            dump the current state
//   save -j <dir>          initialize a journaled store at <dir> from the
//                          current state and switch to it
//   checkpoint             (journaled) write a checkpoint, rotate the journal
//   journal status         (journaled) seqs, journal size, recovery info,
//                          checkpoint generations (with CRC verdicts and
//                          chain coverage), last scrub, and health
//                          (DEGRADED after a persistent I/O fault: reads
//                          keep working, writes are refused)
//   scrub                  (journaled) online integrity check: re-reads
//                          and re-verifies every checkpoint generation
//                          and journal segment without mutating anything
//   reopen                 (journaled) recovery-and-resume after DEGRADED:
//                          re-runs recovery from disk and resumes if no
//                          acknowledged commit is missing
//   apply <MODE> <<< ...   apply inline module text under a mode; the
//                          module text follows until a line with only `;;`
//   run <name>             apply a registered module by its name (durable
//                          in journaled mode: the journal carries the
//                          module's own source)
//   ? <goal>               answer a goal (goal-directed by default: only
//                          the goal's demanded cone is evaluated)
//   schema | rules | edb   show the current state components
//   explain                show the analyzed program (strata, schedules)
//   explain ? <goal>       show the goal-directed rewrite plan (or why
//                          the rewrite falls back to whole-program)
//   dot                    print the predicate dependency graph (DOT)
//   set                    show the evaluation limits
//   set <limit> <n>        set timeout_ms / max_steps / max_facts /
//                          max_bytes / intern_values (0 = plain-allocation
//                          reference path) (0 = unlimited) for later
//                          apply/run/? commands
//   set goal_directed on|off
//                          toggle magic-set query evaluation (off = the
//                          whole-program reference path)
//   value stats            show the hash-consing interner's counters
//   quit
//
// Ctrl-C during an evaluation cancels it cooperatively (the fixpoint
// notices within one step and the state rolls back); at the prompt it
// just clears the line.
//
// Example session:
//   load examples/data/family.logres
//   apply RIDV
//   rules person(name: "zoe").
//   ;;
//   ? person(name: N).

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "algres/interner.h"
#include "core/database.h"
#include "core/dump.h"
#include "core/explain.h"
#include "core/magic.h"
#include "core/parser.h"
#include "storage/journaled_database.h"
#include "util/governor.h"
#include "util/string_util.h"

namespace logres {
namespace {

// SIGINT flips the shared cancellation flag; every evaluation launched by
// the shell carries a token observing it, so a runaway fixpoint stops
// within one step instead of requiring a kill.
CancellationSource& InterruptSource() {
  static CancellationSource source;
  return source;
}

extern "C" void HandleSigint(int) { InterruptSource().Cancel(); }

std::string ReadFile(const std::string& path, Status* status) {
  std::ifstream in(path);
  if (!in) {
    *status = Status::NotFound("cannot open file: " + path);
    return "";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *status = Status::OK();
  return buffer.str();
}

class Shell {
 public:
  int Run(std::istream& in, bool interactive) {
    std::string line;
    if (interactive) std::printf("logres> ");
    for (;;) {
      if (!std::getline(in, line)) {
        // A Ctrl-C at the prompt interrupts the read; clear and continue
        // rather than exiting the session.
        if (interactive && InterruptSource().cancelled()) {
          InterruptSource().Reset();
          std::cin.clear();
          std::printf("\nlogres> ");
          continue;
        }
        break;
      }
      if (!Dispatch(line, in)) break;
      if (interactive) std::printf("logres> ");
    }
    return 0;
  }

 private:
  /// The evaluation options for every command, wired to the interrupt
  /// flag and the `set` limits.
  EvalOptions Options() {
    EvalOptions options;
    options.budget = budget_;
    options.budget.cancel = InterruptSource().token();
    options.intern_values = intern_values_;
    options.goal_directed = goal_directed_;
    return options;
  }

  /// Reports an evaluation outcome, resetting the interrupt flag after a
  /// cancellation so the next command starts clean.
  void ReportEval(const Status& status) {
    Report(status);
    if (status.code() == StatusCode::kCancelled) {
      InterruptSource().Reset();
      std::printf("(state unchanged)\n");
    }
  }
  // Returns false to quit.
  bool Dispatch(const std::string& line, std::istream& in) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty() || StartsWith(command, "--")) return true;

    if (command == "quit" || command == "exit") return false;

    if (command == "load") {
      std::string path;
      words >> path;
      Status read_status;
      std::string text = ReadFile(path, &read_status);
      if (!read_status.ok()) {
        Report(read_status);
        return true;
      }
      auto db = Database::Create(text);
      if (!db.ok()) {
        Report(db.status());
        return true;
      }
      jdb_.reset();
      db_ = std::move(db).value();
      has_db_ = true;
      std::printf("loaded %s (%zu modules registered)\n", path.c_str(),
                  db_.registered_modules().size());
      return true;
    }
    if (command == "open") {
      std::string path;
      words >> path;
      if (path == "-j") {
        words >> path;
        auto store = JournaledDatabase::Open(path);
        if (!store.ok()) {
          Report(store.status());
          return true;
        }
        jdb_ = std::move(store).value();
        has_db_ = true;
        StorageStatus status = jdb_->status();
        std::printf(
            "opened journaled store %s (%zu facts, seq %llu, replayed "
            "%llu record(s))\n",
            path.c_str(), Db().edb().TotalFacts(),
            static_cast<unsigned long long>(status.last_seq),
            static_cast<unsigned long long>(status.replayed_at_open));
        if (status.recovered_fallback_depth > 0) {
          std::printf(
              "recovered from checkpoint generation seq %llu (fallback "
              "depth %llu)\n",
              static_cast<unsigned long long>(
                  status.recovered_checkpoint_seq),
              static_cast<unsigned long long>(
                  status.recovered_fallback_depth));
        }
        for (const std::string& warning : status.warnings) {
          std::printf("warning: %s\n", warning.c_str());
        }
        return true;
      }
      Status read_status;
      std::string text = ReadFile(path, &read_status);
      if (!read_status.ok()) {
        Report(read_status);
        return true;
      }
      auto db = LoadDatabase(text);
      if (!db.ok()) {
        Report(db.status());
        return true;
      }
      jdb_.reset();
      db_ = std::move(db).value();
      has_db_ = true;
      std::printf("opened %s (%zu facts)\n", path.c_str(),
                  db_.edb().TotalFacts());
      return true;
    }
    if (!has_db_ && command != "load" && command != "open") {
      std::printf("no database loaded — use `load <file>` first\n");
      return true;
    }
    if (command == "save") {
      std::string path;
      words >> path;
      if (path == "-j") {
        words >> path;
        auto store = JournaledDatabase::Create(path, Db());
        if (!store.ok()) {
          Report(store.status());
          return true;
        }
        jdb_ = std::move(store).value();
        std::printf("initialized journaled store %s; applies are now "
                    "durable\n", path.c_str());
        return true;
      }
      std::ofstream out(path);
      if (!out) {
        std::printf("cannot write %s\n", path.c_str());
        return true;
      }
      out << DumpDatabase(Db());
      std::printf("saved %s\n", path.c_str());
      return true;
    }
    if (command == "checkpoint") {
      if (!jdb_.has_value()) {
        std::printf("no journaled store open — use `open -j <dir>` or "
                    "`save -j <dir>`\n");
        return true;
      }
      Status st = jdb_->Checkpoint();
      if (!st.ok()) {
        Report(st);
        return true;
      }
      StorageStatus status = jdb_->status();
      std::printf("checkpointed at seq %llu\n",
                  static_cast<unsigned long long>(status.checkpoint_seq));
      return true;
    }
    if (command == "journal") {
      std::string sub;
      words >> sub;
      if (sub != "status") {
        std::printf("usage: journal status\n");
        return true;
      }
      if (!jdb_.has_value()) {
        std::printf("no journaled store open — use `open -j <dir>` or "
                    "`save -j <dir>`\n");
        return true;
      }
      StorageStatus s = jdb_->status();
      std::printf(
          "store         %s\n"
          "status        %s\n"
          "last seq      %llu\n"
          "checkpoint    seq %llu\n"
          "journal       %llu record(s), %llu byte(s), %llu rotated\n"
          "recovery      replayed %llu record(s), truncated %llu byte(s)\n"
          "resources     %llu evaluator step(s) committed, last instance "
          "%llu fact(s)\n",
          jdb_->dir().c_str(),
          s.degraded ? "DEGRADED (read-only; `reopen` to recover)"
                     : "healthy",
          static_cast<unsigned long long>(s.last_seq),
          static_cast<unsigned long long>(s.checkpoint_seq),
          static_cast<unsigned long long>(s.journal_records),
          static_cast<unsigned long long>(s.journal_bytes),
          static_cast<unsigned long long>(s.rotated_journals),
          static_cast<unsigned long long>(s.replayed_at_open),
          static_cast<unsigned long long>(s.truncated_bytes_at_open),
          static_cast<unsigned long long>(s.steps_total),
          static_cast<unsigned long long>(s.facts_last));
      if (s.degraded) {
        std::printf("cause         %s\n", s.degraded_reason.c_str());
      }
      if (s.recovered_fallback_depth > 0) {
        std::printf("recovered     from generation seq %llu (fallback "
                    "depth %llu)\n",
                    static_cast<unsigned long long>(
                        s.recovered_checkpoint_seq),
                    static_cast<unsigned long long>(
                        s.recovered_fallback_depth));
      }
      std::printf("scrub         %s\n",
                  s.scrubbed
                      ? StrCat(s.last_scrub_ok ? "ok" : "ERRORS", " at ",
                               s.last_scrub_time, " (",
                               s.last_scrub_summary, ")")
                            .c_str()
                      : "never run (use `scrub`)");
      for (const CheckpointGenerationInfo& gen : jdb_->Generations()) {
        std::printf(
            "generation    seq %llu %s v%d %s %s (%llu byte(s))\n",
            static_cast<unsigned long long>(gen.seq),
            gen.head ? "HEAD" : ".old", gen.version,
            gen.verified ? "crc-ok" : (gen.usable ? "unverified" : "CORRUPT"),
            gen.chain_covered ? "chain-covered" : "chain-incomplete",
            static_cast<unsigned long long>(gen.bytes));
        if (!gen.detail.empty()) {
          std::printf("              %s\n", gen.detail.c_str());
        }
      }
      for (const std::string& warning : s.warnings) {
        std::printf("warning: %s\n", warning.c_str());
      }
      return true;
    }
    if (command == "scrub") {
      if (!jdb_.has_value()) {
        std::printf("no journaled store open — use `open -j <dir>` or "
                    "`save -j <dir>`\n");
        return true;
      }
      ScrubReport report = jdb_->Scrub();
      for (const StoreFileCheck& file : report.files) {
        std::printf("scrub  %-24s %-20s %s%s%s\n", file.name.c_str(),
                    file.kind.c_str(), file.verdict.c_str(),
                    file.detail.empty() ? "" : " — ",
                    file.detail.c_str());
      }
      std::printf("scrub %s: %s\n", report.ok() ? "ok" : "FOUND ERRORS",
                  report.summary.c_str());
      if (!report.ok()) {
        std::printf("run `logres_fsck %s` for repair options\n",
                    jdb_->dir().c_str());
      }
      return true;
    }
    if (command == "reopen") {
      if (!jdb_.has_value()) {
        std::printf("no journaled store open — use `open -j <dir>` or "
                    "`save -j <dir>`\n");
        return true;
      }
      Status st = jdb_->Reopen();
      if (!st.ok()) {
        Report(st);
        return true;
      }
      StorageStatus status = jdb_->status();
      std::printf("reopened %s (seq %llu, store %s)\n",
                  jdb_->dir().c_str(),
                  static_cast<unsigned long long>(status.last_seq),
                  status.degraded ? "still DEGRADED" : "healthy");
      if (status.recovered_fallback_depth > 0) {
        std::printf(
            "recovered from checkpoint generation seq %llu (fallback "
            "depth %llu)\n",
            static_cast<unsigned long long>(status.recovered_checkpoint_seq),
            static_cast<unsigned long long>(
                status.recovered_fallback_depth));
      }
      return true;
    }
    if (command == "apply") {
      std::string mode_text;
      words >> mode_text;
      auto mode = ParseApplicationMode(ToUpper(mode_text));
      if (!mode.has_value()) {
        std::printf("unknown mode '%s' (RIDI/RADI/RDDI/RIDV/RADV/RDDV)\n",
                    mode_text.c_str());
        return true;
      }
      std::string body, module_line;
      while (std::getline(in, module_line) && module_line != ";;") {
        body += module_line;
        body += '\n';
      }
      Instance before = Db().edb();
      auto result = jdb_.has_value()
                        ? jdb_->ApplySource(body, *mode, Options())
                        : db_.ApplySource(body, *mode, Options());
      if (!result.ok()) {
        ReportEval(result.status());
        return true;
      }
      std::printf("applied%s (%s)\n", jdb_.has_value() ? " [durable]" : "",
                  ExplainStats(result->stats).c_str());
      InstanceDiff diff = DiffInstances(before, Db().edb());
      if (!diff.empty()) std::printf("%s", diff.ToString().c_str());
      if (result->goal_answer.has_value()) {
        PrintAnswer(*result->goal_answer);
      }
      return true;
    }
    if (command == "run") {
      std::string name;
      words >> name;
      Instance before = Db().edb();
      // In journaled mode the store journals the module's serialized
      // source (dump v2 checkpoints carry module blocks), so `run` is as
      // durable as `apply`.
      auto result = jdb_.has_value() ? jdb_->ApplyByName(name, Options())
                                     : db_.ApplyByName(name, Options());
      if (!result.ok()) {
        ReportEval(result.status());
        return true;
      }
      std::printf("applied module '%s'%s\n", name.c_str(),
                  jdb_.has_value() ? " [durable]" : "");
      InstanceDiff diff = DiffInstances(before, Db().edb());
      if (!diff.empty()) std::printf("%s", diff.ToString().c_str());
      if (result->goal_answer.has_value()) {
        PrintAnswer(*result->goal_answer);
      }
      return true;
    }
    if (command == "?") {
      std::string goal = line.substr(line.find('?'));
      EvalStats stats;
      auto answer = Db().Query(goal, Options(), &stats);
      if (!answer.ok()) {
        ReportEval(answer.status());
        return true;
      }
      PrintAnswer(*answer);
      std::printf("(%s)\n", ExplainStats(stats).c_str());
      return true;
    }
    if (command == "set") {
      std::string key;
      words >> key;
      if (key.empty()) {
        std::printf(
            "timeout_ms = %lld\nmax_steps = %zu\nmax_facts = %zu\n"
            "max_bytes = %zu\nintern_values = %d\n"
            "goal_directed = %s\n",
            budget_.timeout.has_value()
                ? static_cast<long long>(budget_.timeout->count())
                : 0LL,
            budget_.max_steps, budget_.max_facts, budget_.max_bytes,
            intern_values_ ? 1 : 0, goal_directed_ ? "on" : "off");
        return true;
      }
      if (key == "goal_directed") {
        // Magic-set query evaluation; off = the whole-program reference
        // path (answers identical, see EvalOptions::goal_directed).
        std::string mode;
        words >> mode;
        if (mode == "on" || mode == "1") {
          goal_directed_ = true;
        } else if (mode == "off" || mode == "0") {
          goal_directed_ = false;
        } else {
          std::printf("usage: set goal_directed on|off\n");
          return true;
        }
        std::printf("set goal_directed = %s\n", goal_directed_ ? "on" : "off");
        return true;
      }
      long long value = -1;
      words >> value;
      if (value < 0) {
        std::printf(
            "usage: set [timeout_ms|max_steps|max_facts|max_bytes|"
            "intern_values] <n> | set goal_directed on|off\n");
        return true;
      }
      if (key == "timeout_ms") {
        if (value == 0) {
          budget_.timeout.reset();
        } else {
          budget_.timeout = std::chrono::milliseconds(value);
        }
      } else if (key == "max_steps") {
        budget_.max_steps = static_cast<size_t>(value);
      } else if (key == "max_facts") {
        budget_.max_facts = static_cast<size_t>(value);
      } else if (key == "max_bytes") {
        budget_.max_bytes = static_cast<size_t>(value);
      } else if (key == "intern_values") {
        // 0 = plain-allocation reference path; results are identical
        // either way (EvalOptions::intern_values).
        intern_values_ = value != 0;
      } else {
        std::printf(
            "unknown limit '%s' "
            "(timeout_ms/max_steps/max_facts/max_bytes/intern_values/"
            "goal_directed)\n",
            key.c_str());
        return true;
      }
      std::printf("set %s = %lld\n", key.c_str(), value);
      return true;
    }
    if (command == "value") {
      // `value stats`: the hash-consing interner's counters, in the
      // spirit of `journal status`.
      std::string sub;
      words >> sub;
      if (sub != "stats") {
        std::printf("usage: value stats\n");
        return true;
      }
      std::printf("%s\n", ValueInterner::stats().ToString().c_str());
      return true;
    }
    if (command == "schema") {
      std::printf("%s", SchemaToSource(Db().schema()).c_str());
      return true;
    }
    if (command == "rules") {
      for (const Rule& rule : Db().rules()) {
        std::printf("  %s\n", rule.ToString().c_str());
      }
      std::printf("(%zu persistent rules)\n", Db().rules().size());
      return true;
    }
    if (command == "edb") {
      std::printf("%s", Db().edb().ToString().c_str());
      return true;
    }
    if (command == "explain" || command == "dot") {
      // `explain ? <goal>`: the goal-directed rewrite plan (adornments,
      // guarded/magic rules, seeds) — or the recorded fallback reason.
      if (command == "explain" && line.find('?') != std::string::npos) {
        auto goal = ParseGoal(line.substr(line.find('?')));
        if (!goal.ok()) {
          Report(goal.status());
          return true;
        }
        MagicRewrite rewrite = MagicRewriteForGoal(
            Db().schema(), Db().functions(), Db().rules(), *goal, Options());
        std::printf("%s", rewrite.plan.c_str());
        if (!rewrite.plan.empty() && rewrite.plan.back() != '\n') {
          std::printf("\n");
        }
        return true;
      }
      auto program = Typecheck(Db().schema(), Db().functions(),
                               Db().rules());
      if (!program.ok()) {
        Report(program.status());
        return true;
      }
      if (command == "explain") {
        std::printf("%s", ExplainProgram(*program).c_str());
      } else {
        std::printf("%s", DependencyGraphDot(Db().schema(),
                                             *program).c_str());
      }
      return true;
    }
    std::printf("unknown command '%s'\n", command.c_str());
    return true;
  }

  void PrintAnswer(const std::vector<Bindings>& answer) {
    for (const Bindings& binding : answer) {
      std::string row;
      for (const auto& [var, value] : binding) {
        row += StrCat(var, " = ", value.ToString(), "  ");
      }
      std::printf("  %s\n", row.c_str());
    }
    std::printf("(%zu answers)\n", answer.size());
  }

  void Report(const Status& status) {
    std::printf("error: %s\n", status.ToString().c_str());
  }

  /// The database commands operate on: the journaled store's when one is
  /// open, the plain in-memory one otherwise.
  Database& Db() { return jdb_.has_value() ? jdb_->db() : db_; }

  Database db_;
  std::optional<JournaledDatabase> jdb_;
  bool has_db_ = false;
  Budget budget_;  // adjusted with `set`; cancel token added per command
  bool intern_values_ = true;  // `set intern_values`; off = reference path
  bool goal_directed_ = true;  // `set goal_directed`; off = whole-program
};

}  // namespace
}  // namespace logres

int main(int argc, char** argv) {
  // No SA_RESTART: Ctrl-C must interrupt a blocking read at the prompt as
  // well as flag a running evaluation.
  struct sigaction action = {};
  action.sa_handler = logres::HandleSigint;
  sigaction(SIGINT, &action, nullptr);

  logres::Shell shell;
  if (argc > 1) {
    std::ifstream script(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open script %s\n", argv[1]);
      return 1;
    }
    return shell.Run(script, /*interactive=*/false);
  }
  return shell.Run(std::cin, /*interactive=*/true);
}
