#include "cli/driver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cli/registry.hpp"
#include "lang/corpus.hpp"
#include "service/service.hpp"
#include "support/json_reader.hpp"
#include "support/trace.hpp"

namespace meshpar::cli {
namespace {

DriverResult place_testt(std::vector<std::string> extra = {}) {
  std::vector<std::string> args{"place", "prog.f", "spec.txt"};
  args.insert(args.end(), extra.begin(), extra.end());
  return run_driver(args, lang::testt_source(), lang::testt_spec());
}

TEST(Driver, PlaceEmitsBestPlacement) {
  DriverResult r = place_testt();
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("distinct placements"), std::string::npos);
  EXPECT_NE(r.output.find("C$SYNCHRONIZE"), std::string::npos);
  EXPECT_NE(r.output.find("placement #0"), std::string::npos);
  // Only the best is emitted by default.
  EXPECT_EQ(r.output.find("placement #1"), std::string::npos);
}

TEST(Driver, PlaceAllEmitsEveryPlacement) {
  DriverResult r = place_testt({"--all", "--max", "64"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("placement #1"), std::string::npos);
}

TEST(Driver, PlaceEmitSelectsOne) {
  DriverResult r = place_testt({"--emit", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("placement #2"), std::string::npos);
  EXPECT_EQ(r.output.find("placement #0 "), std::string::npos);
}

TEST(Driver, PlaceEmitOutOfRangeFails) {
  DriverResult r = place_testt({"--emit", "99999"});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.error.find("does not exist"), std::string::npos);
}

/// `place` on TESTT with one more spec line, which names a variable the
/// subroutine never mentions.
DriverResult place_testt_with(const std::string& spec_line) {
  return run_driver({"place", "prog.f", "spec.txt"}, lang::testt_source(),
                    lang::testt_spec() + spec_line + "\n");
}

TEST(Driver, SpecArrayNamingNoVariableFails) {
  DriverResult r = place_testt_with("array nope nodes");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.error.find("spec array 'nope' is not a variable of subroutine"),
            std::string::npos)
      << r.error;
}

TEST(Driver, SpecInputNamingNoVariableFails) {
  DriverResult r = place_testt_with("input nope coherent");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.error.find("spec input 'nope' is not a variable of subroutine"),
            std::string::npos)
      << r.error;
}

TEST(Driver, SpecOutputNamingNoVariableFails) {
  DriverResult r = place_testt_with("output nope coherent");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.error.find("spec output 'nope' is not a variable of subroutine"),
            std::string::npos)
      << r.error;
}

TEST(Driver, SpecLoopvarMatchingNoLoopFails) {
  // Neither the variable nor the bound names a DO loop, then only the
  // bound: each rule would partition nothing.
  for (const char* line : {"loopvar q over nope partition nodes",
                           "loopvar i over nope partition nodes"}) {
    SCOPED_TRACE(line);
    DriverResult r = place_testt_with(line);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.error.find("' over 'nope' matches no DO loop of subroutine"),
              std::string::npos)
        << r.error;
  }
}

TEST(Driver, CheckAcceptsTestt) {
  DriverResult r = run_driver({"check", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("ACCEPTED"), std::string::npos);
}

/// A program the applicability check rejects: the scalar t escapes from
/// one particular partitioned iteration (Figure 4, case g).
constexpr const char* kRejectedSource =
    "      subroutine f(nsom,x,out)\n"
    "      integer nsom,i\n"
    "      real x(10),t,out\n"
    "      do i = 1,nsom\n"
    "        t = x(i)\n"
    "      end do\n"
    "      out = t\n"
    "      end\n";
constexpr const char* kRejectedSpec =
    "pattern overlap-triangle-layer\n"
    "loopvar i over nsom partition nodes\n"
    "array x nodes\ninput x coherent\ninput nsom replicated\n";

TEST(Driver, CheckRejectsIllegalPartitioning) {
  DriverResult r = run_driver({"check", "p", "s"}, kRejectedSource,
                              kRejectedSpec);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("REJECTED"), std::string::npos);
}

TEST(Driver, PlacementCommandsShareOneGate) {
  // Every command that needs placements refuses a rejected program with
  // the same line and exit 1, and a search that finds no placement with
  // exit 1 and a "no placement" line.
  std::size_t gated = 0;
  for (const CommandSpec& c : registry()) {
    if (c.needs != Needs::kPlacements) continue;
    SCOPED_TRACE(c.name);
    ++gated;
    DriverResult r =
        run_driver({c.name, "p", "s"}, kRejectedSource, kRejectedSpec);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.output, "");
    EXPECT_EQ(r.error,
              "applicability check failed; run 'mptool check' for details\n");
    DriverResult none = run_driver({c.name, "p", "s", "--budget", "10"},
                                   lang::testt_source(), lang::testt_spec());
    EXPECT_EQ(none.exit_code, 1);
    EXPECT_EQ(none.output, "");
    EXPECT_EQ(none.error.rfind("no placement", 0), 0u) << none.error;
  }
  EXPECT_EQ(gated, 6u);
}

/// The stdout of `mptool <command>` on a bundled example, through
/// run_main; the run must exit 0.
std::string run_example(const char* command, const std::string& name) {
  const std::string prog = std::string(MP_EXAMPLES_DIR) + "/" + name + ".f";
  const std::string spec = std::string(MP_EXAMPLES_DIR) + "/" + name + ".spec";
  const char* argv[] = {"mptool", command, prog.c_str(), spec.c_str()};
  std::ostringstream out, err;
  EXPECT_EQ(run_main(4, argv, out, err), 0) << err.str();
  return out.str();
}

std::string read_golden(const std::string& file) {
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) + "/" + file);
  EXPECT_TRUE(golden.is_open()) << file;
  std::ostringstream want;
  want << golden.rdbuf();
  return want.str();
}

TEST(Driver, CheckMatchesGoldenOnBundledExamples) {
  // The findings table is pinned byte-for-byte: case, verdict and the text
  // of every finding that is not plainly respected.
  for (const std::string name : {"testt", "coupled"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(run_example("check", name),
              read_golden("check_" + name + ".txt"));
  }
}

TEST(Driver, CheckMatchesGoldenOnRejectedProgram) {
  // Dependence findings (escapes of t and of an element of x) next to
  // findings without a dependence (x passed whole to a call, an
  // elementwise access on the wrong entity, x read outside any
  // partitioned loop).
  DriverResult r = run_driver(
      {"check", "p", "s"},
      "      subroutine f(nsom,ntri,x,out)\n"
      "      integer nsom,ntri,i\n"
      "      real x(10),t,out\n"
      "      do i = 1,nsom\n"
      "        t = x(i)\n"
      "        call helper(x)\n"
      "      end do\n"
      "      do i = 1,ntri\n"
      "        x(i) = t\n"
      "      end do\n"
      "      out = x(5) + t\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over nsom partition nodes\n"
      "loopvar i over ntri partition triangles\n"
      "array x nodes\ninput x coherent\ninput nsom replicated\n"
      "input ntri replicated\n");
  EXPECT_EQ(r.exit_code, 1) << r.error;
  EXPECT_EQ(r.error, "");
  EXPECT_EQ(r.output, read_golden("check_rejected.txt"));
}

TEST(Driver, DepsListsDependences) {
  DriverResult r = run_driver({"deps", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("true"), std::string::npos);
  EXPECT_NE(r.output.find("sqrdiff"), std::string::npos);
  EXPECT_NE(r.output.find("<entry>"), std::string::npos);
}

TEST(Driver, DepsMatchesGoldenOnBundledExamples) {
  // The ordered dependence list is a contract (DESIGN.md §5): every later
  // step walks deps().all() in order, so `mptool deps` is pinned
  // byte-for-byte — kind, variable, endpoints, carrying loops and order.
  for (const std::string name : {"testt", "coupled"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(run_example("deps", name), read_golden("deps_" + name + ".txt"));
  }
}

TEST(Driver, AutomatonPrintsTable) {
  DriverResult r =
      run_driver({"automaton", "overlap-node-boundary"}, "", "");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("Nod1/2"), std::string::npos);
  EXPECT_NE(r.output.find("UPDATE"), std::string::npos);
}

TEST(Driver, AutomatonUnknownPatternFails) {
  DriverResult r = run_driver({"automaton", "bogus"}, "", "");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("unknown pattern"), std::string::npos);
}

TEST(Driver, FissionTransformsRejectedLoop) {
  DriverResult r = run_driver(
      {"fission", "p", "s"},
      "      subroutine f(nsom,b,c)\n"
      "      integer nsom,i\n"
      "      real a(1001),b(1000),c(1000)\n"
      "      do i = 1,nsom\n"
      "        a(i) = b(i)\n"
      "        c(i) = a(i+1)\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over nsom partition nodes\n"
      "array a nodes\narray b nodes\narray c nodes\n"
      "input a coherent\ninput b coherent\ninput nsom replicated\n");
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("distributed 1 loop(s) into 2 pieces"),
            std::string::npos);
  // Two separate DO loops in the transformed source.
  std::size_t first = r.output.find("do i = 1,nsom");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(r.output.find("do i = 1,nsom", first + 1), std::string::npos);
}

TEST(Driver, FissionOnAcceptedProgramIsANoOp) {
  DriverResult r = run_driver({"fission", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("already acceptable"), std::string::npos);
}

TEST(Driver, VerifyAcceptsAllTesttPlacements) {
  DriverResult r = run_driver({"verify", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("VERIFIED"), std::string::npos);
  EXPECT_NE(r.output.find("placement #0: verified"), std::string::npos);
  EXPECT_EQ(r.output.find("FAILED"), std::string::npos);
}

TEST(Driver, VerifyJsonEmitsStableReport) {
  DriverResult r = run_driver({"verify", "p", "s", "--json", "--max", "4"},
                              lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(r.output.find("\"summary\""), std::string::npos);
  EXPECT_NE(r.output.find("\"findings\""), std::string::npos);
}

TEST(Driver, VerifyDynamicRunsSanitizedExecution) {
  DriverResult r =
      run_driver({"verify", "p", "s", "--dynamic", "--max", "2"},
                 lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("VERIFIED"), std::string::npos);
}

TEST(Driver, PlaceJobsOutputIsByteIdentical) {
  // The full CLI output — placements, costs, annotated program, and the
  // "states tried" statistics line — must not depend on --jobs.
  DriverResult seq = place_testt({"--all", "--max", "0"});
  ASSERT_EQ(seq.exit_code, 0) << seq.error;
  for (const char* jobs : {"2", "8", "0"}) {
    DriverResult par = place_testt({"--all", "--max", "0", "--jobs", jobs});
    ASSERT_EQ(par.exit_code, 0) << par.error;
    EXPECT_EQ(par.output, seq.output) << "--jobs " << jobs;
  }
}

TEST(Driver, PlaceKBestOutputIsByteIdentical) {
  // The bounded-memory k-best pipeline must emit exactly what the
  // unbounded ranking would, truncated to K, for every --jobs value.
  DriverResult legacy = place_testt({"--all", "--max", "0"});
  ASSERT_EQ(legacy.exit_code, 0) << legacy.error;
  DriverResult seq = place_testt({"--all", "--k-best", "8"});
  ASSERT_EQ(seq.exit_code, 0) << seq.error;
  EXPECT_NE(seq.output.find("8 distinct placements"), std::string::npos);
  for (const char* jobs : {"2", "8", "0"}) {
    DriverResult par = place_testt({"--all", "--k-best", "8", "--jobs", jobs});
    ASSERT_EQ(par.exit_code, 0) << par.error;
    EXPECT_EQ(par.output, seq.output) << "--jobs " << jobs;
  }
  // The emitted placements are the cheapest 8 of the full ranking: every
  // annotated program body printed by --k-best appears in the full output.
  std::size_t pos = seq.output.find("---- placement #0 ----");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE(legacy.output.find(seq.output.substr(pos)), std::string::npos);
}

TEST(Driver, PlaceJobsRejectsNegative) {
  DriverResult r = place_testt({"--jobs", "-2"});
  EXPECT_NE(r.exit_code, 0);
}

TEST(Driver, PlaceBudgetTruncatesWithReason) {
  DriverResult r = place_testt({"--budget", "10"});
  EXPECT_EQ(r.exit_code, 1);  // no solution within 10 assignments
  EXPECT_NE(r.error.find("no placement"), std::string::npos);
  DriverResult r2 = place_testt({"--budget", "200"});
  EXPECT_EQ(r2.exit_code, 0) << r2.error;
  EXPECT_NE(r2.output.find("search truncated: assignment budget exhausted"),
            std::string::npos);
}

TEST(Driver, SoakDetectsEveryInjectedFault) {
  DriverResult r =
      run_driver({"soak", "p", "s", "--seed", "3", "--faults", "40"},
                 lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error << r.output;
  EXPECT_NE(r.output.find("SOAK: all 40/40 injected faults detected"),
            std::string::npos);
  // The report names the catching layer per fault.
  EXPECT_NE(r.output.find("watchdog"), std::string::npos);
  EXPECT_NE(r.output.find("containment"), std::string::npos);
}

TEST(Driver, SoakJsonMatchesGolden) {
  // The JSON campaign report is deterministic — fault identities and the
  // detecting layer are functions of (program, spec, seed) alone, never of
  // thread scheduling — so it is pinned byte-for-byte.
  DriverResult r = run_driver(
      {"soak", "p", "s", "--seed", "7", "--faults", "25", "--json"},
      lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) + "/soak_golden.json");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(r.output, want.str());
}

/// testt with a loop parked behind the unconditional GOTO — unreachable,
/// so `mptool lint` reports MP-L005 for every placement.
std::string unreachable_testt() {
  std::string src = lang::testt_source();
  std::size_t at = src.find("      goto 100");
  EXPECT_NE(at, std::string::npos);
  src.insert(src.find('\n', at) + 1,
             "      do i = 1,nsom\n"
             "        old(i) = new(i)\n"
             "      end do\n");
  return src;
}

TEST(Driver, LintAcceptsAllTesttPlacements) {
  DriverResult r = run_driver({"lint", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("placement #0: coherent"), std::string::npos);
  EXPECT_NE(r.output.find("LINT: all placements coherent"),
            std::string::npos);
}

TEST(Driver, LintFindingsExitOne) {
  DriverResult r = run_driver({"lint", "p", "s", "--k-best", "2"},
                              unreachable_testt(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 1) << r.error;
  EXPECT_NE(r.output.find("MP-L005"), std::string::npos);
  EXPECT_NE(r.output.find("LINT: findings detected"), std::string::npos);
}

TEST(Driver, LintBadProgramExitsTwo) {
  DriverResult r = run_driver({"lint", "p", "s"}, "this is not fortran\n",
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.error.empty());
}

TEST(Driver, LintJsonMatchesGolden) {
  // The machine interface of `mptool lint --json` is pinned byte-for-byte:
  // placement-qualified MP-L codes, ranges, and the severity summary.
  DriverResult r =
      run_driver({"lint", "p", "s", "--json", "--k-best", "2"},
                 unreachable_testt(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 1) << r.error;
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) + "/lint_golden.json");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(r.output, want.str());
}

TEST(Driver, LintJobsOutputIsByteIdentical) {
  DriverResult seq = run_driver({"lint", "p", "s", "--k-best", "8"},
                                lang::testt_source(), lang::testt_spec());
  ASSERT_EQ(seq.exit_code, 0) << seq.error;
  for (const char* jobs : {"2", "8", "0"}) {
    DriverResult par =
        run_driver({"lint", "p", "s", "--k-best", "8", "--jobs", jobs},
                   lang::testt_source(), lang::testt_spec());
    ASSERT_EQ(par.exit_code, 0) << par.error;
    EXPECT_EQ(par.output, seq.output) << "--jobs " << jobs;
  }
}

TEST(Driver, LintMaxErrorsCapsStoredFindings) {
  DriverResult r = run_driver(
      {"lint", "p", "s", "--k-best", "2", "--max-errors", "1"},
      unreachable_testt(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 1) << r.error;
  EXPECT_NE(r.output.find("(1 not shown)"), std::string::npos);
}

TEST(Driver, LintWerrorPromotesFindings) {
  DriverResult r = run_driver({"lint", "p", "s", "--k-best", "2", "--werror"},
                              unreachable_testt(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 1) << r.error;
  EXPECT_NE(r.output.find("error"), std::string::npos);
  EXPECT_EQ(r.output.find("warning"), std::string::npos);
}

TEST(Driver, PlaceGateStaysSilentWhenClean) {
  // The post-placement lint gate must not alter clean `place` output (the
  // byte-identity goldens above depend on it).
  DriverResult r = place_testt();
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_EQ(r.output.find("LINT"), std::string::npos);
  EXPECT_TRUE(r.error.empty());
}

TEST(Driver, PlaceWerrorGateRejectsAdviceFindings) {
  // Without --werror the gate blocks only provable errors; with it the
  // advice classes (here MP-L005) reject the placement too.
  DriverResult ok = run_driver({"place", "p", "s", "--k-best", "2"},
                               unreachable_testt(), lang::testt_spec());
  EXPECT_EQ(ok.exit_code, 0) << ok.error;
  DriverResult bad =
      run_driver({"place", "p", "s", "--k-best", "2", "--werror"},
                 unreachable_testt(), lang::testt_spec());
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.error.find("MP-L005"), std::string::npos);
  EXPECT_NE(bad.error.find("static coherence gate"), std::string::npos);
}

TEST(Driver, BadFlagFails) {
  DriverResult r = place_testt({"--frobnicate"});
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Driver, MissingCommandFails) {
  DriverResult r = run_driver({}, "", "");
  EXPECT_EQ(r.exit_code, 2);
  // The message lists every registered command, in registry order.
  std::string expected = "missing command (";
  for (const CommandSpec& cmd : registry()) {
    if (&cmd != &registry().front()) expected += " | ";
    expected += cmd.name;
  }
  EXPECT_EQ(r.error, expected + ")\n");
}

TEST(Driver, BadProgramReportsDiagnostics) {
  DriverResult r = run_driver({"place", "p", "s"}, "this is not fortran\n",
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.error.empty());
}

TEST(Driver, HelpListsEverySubcommandAndFlag) {
  // The usage text is GENERATED from the command registry, so this cannot
  // drift: every registered subcommand and every flag in the flag table
  // appears, and so does every flag any command row references.
  DriverResult r = run_driver({"--help"}, "", "");
  EXPECT_EQ(r.exit_code, 0) << r.error;
  for (const CommandSpec& cmd : registry()) {
    EXPECT_NE(r.output.find(std::string("mptool ") + cmd.name),
              std::string::npos)
        << "usage text does not mention subcommand '" << cmd.name << "'";
    for (const char* flag : cmd.flags)
      EXPECT_NE(r.output.find(flag), std::string::npos)
          << "usage text does not mention flag '" << flag << "' of '"
          << cmd.name << "'";
  }
  for (const FlagSpec& flag : flag_specs())
    EXPECT_NE(r.output.find(flag.name), std::string::npos)
        << "usage text does not mention flag '" << flag.name << "'";
  // Every command-row flag resolves in the flag-description table.
  for (const CommandSpec& cmd : registry())
    for (const char* flag : cmd.flags) {
      bool described = false;
      for (const FlagSpec& f : flag_specs())
        described |= std::string_view(f.name) == flag;
      EXPECT_TRUE(described) << "flag '" << flag << "' of '" << cmd.name
                             << "' has no description row";
    }
}

TEST(Driver, FlagsAreValidatedPerCommand) {
  // A flag that exists but is not accepted by the subcommand is a usage
  // error (exit 2) naming both, never a silent no-op.
  DriverResult r = run_driver({"check", "p", "s", "--emit", "1"},
                              lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("'check' does not accept --emit"),
            std::string::npos)
      << r.error;
  DriverResult dot = place_testt({"--dot"});
  EXPECT_EQ(dot.exit_code, 2);
  EXPECT_NE(dot.error.find("does not accept --dot"), std::string::npos);
}

TEST(Driver, ExitCodeContractMatrix) {
  // The uniform exit-code contract (registry.hpp): 0 success, 1 findings
  // or pipeline failure, 2 build or usage error — one probe per class.
  struct Case {
    const char* why;
    std::vector<std::string> args;
    std::string source;
    std::string spec;
    int want;
  };
  const std::string& src = lang::testt_source();
  const std::string& spec = lang::testt_spec();
  for (const Case& c : std::initializer_list<Case>{
           {"clean place", {"place", "p", "s"}, src, spec, 0},
           {"clean check", {"check", "p", "s"}, src, spec, 0},
           {"clean verify", {"verify", "p", "s"}, src, spec, 0},
           {"no placement within budget",
            {"place", "p", "s", "--budget", "10"},
            src,
            spec,
            1},
           {"unknown command", {"frobnicate", "p", "s"}, src, spec, 2},
           {"unknown flag", {"place", "p", "s", "--nope"}, src, spec, 2},
           {"flag not accepted by command",
            {"deps", "p", "s", "--json"},
            src,
            spec,
            2},
           {"build error", {"place", "p", "s"}, "not fortran\n", spec, 2},
           {"emit index out of range",
            {"place", "p", "s", "--emit", "99999"},
            src,
            spec,
            2},
           {"opt emit index out of range",
            {"opt", "p", "s", "--emit", "99999"},
            src,
            spec,
            2},
           {"profile emit index out of range",
            {"profile", "p", "s", "--emit", "99999"},
            src,
            spec,
            2},
       }) {
    DriverResult r = run_driver(c.args, c.source, c.spec);
    EXPECT_EQ(r.exit_code, c.want) << c.why << ": " << r.error;
  }
}

// ------------------------------------------------------------------ batch

/// A temp path owned by the running test case in this process. ctest runs
/// every case as its own process, concurrently under -j, so a path shared
/// between cases would let one case overwrite another's files.
std::string unique_temp_path(const std::string& stem) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + stem + "_" + info->test_suite_name() + "_" +
         info->name() + "_" + std::to_string(getpid());
}

/// Writes the two bundled example pairs, the `extra` (name, text) files and
/// a manifest into a fresh temp directory and returns the manifest path.
/// The directories are removed when the process exits.
std::string write_batch_fixture(
    const std::string& manifest_json,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  struct Cleanup {
    std::vector<std::string> dirs;
    ~Cleanup() {
      std::error_code ec;
      for (const auto& d : dirs) std::filesystem::remove_all(d, ec);
    }
  };
  static Cleanup cleanup;
  const std::string dir = unique_temp_path("mptool_batch") + "_" +
                          std::to_string(cleanup.dirs.size()) + "/";
  cleanup.dirs.push_back(dir);
  std::filesystem::create_directories(dir);
  auto put = [&](const std::string& name, const std::string& text) {
    std::ofstream f(dir + name, std::ios::binary);
    f << text;
  };
  put("testt.f", lang::testt_source());
  put("testt.spec", lang::testt_spec());
  put("coupled.f", lang::coupled_source());
  put("coupled.spec", lang::coupled_spec());
  for (const auto& [name, text] : extra) put(name, text);
  put("manifest.json", manifest_json);
  return dir + "manifest.json";
}

const char* kBatchManifest = R"({
  "entries": [
    {"name": "testt-place", "args": ["place", "testt.f", "testt.spec", "--k-best", "4"]},
    {"name": "testt-lint", "args": ["lint", "testt.f", "testt.spec"]},
    {"name": "testt-place-again", "args": ["place", "testt.f", "testt.spec", "--k-best", "4"]},
    {"name": "coupled-verify", "args": ["verify", "coupled.f", "coupled.spec"]}
  ]
})";

TEST(Driver, BatchRunsEntriesAndReportsCacheReuse) {
  const std::string manifest = write_batch_fixture(kBatchManifest);
  DriverResult r = run_driver({"batch", manifest}, "", "");
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("batch: 4 entries"), std::string::npos);
  EXPECT_NE(r.output.find("testt-place-again"), std::string::npos);
  EXPECT_NE(r.output.find("BATCH: 4 ok, 0 failed, 0 errors"),
            std::string::npos)
      << r.output;
  // The duplicate place entry copies the first one's result; the lint
  // entry reuses the compile artifact (≥1 hit overall, pinned exactly by
  // the JSON test below).
  EXPECT_NE(r.output.find("yes"), std::string::npos) << r.output;
  // Entry outputs are embedded in manifest order.
  std::size_t first = r.output.find("---- entry #0: testt-place ----");
  std::size_t last = r.output.find("---- entry #3: coupled-verify ----");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
  EXPECT_NE(r.output.find("distinct placements"), std::string::npos);
  EXPECT_NE(r.output.find("VERIFIED"), std::string::npos);
}

TEST(Driver, BatchJsonIsByteIdenticalAcrossJobs) {
  // The acceptance property of the batch surface: report bytes — including
  // the cache-stats block — are identical for every --jobs value, because
  // aggregation is manifest-ordered, duplicate entries coalesce, and the
  // "cached" column comes from a sequential pre-pass.
  const std::string manifest = write_batch_fixture(kBatchManifest);
  DriverResult seq = run_driver({"batch", manifest, "--json"}, "", "");
  ASSERT_EQ(seq.exit_code, 0) << seq.error;
  EXPECT_NE(seq.output.find("\"cached\":true"), std::string::npos)
      << seq.output;
  // The cache block holds exactly the three levels, in this order.
  const std::optional<JsonValue> doc = json_parse(seq.output);
  ASSERT_TRUE(doc.has_value()) << seq.output;
  const JsonValue* cache = doc->find("cache");
  ASSERT_NE(cache, nullptr) << seq.output;
  ASSERT_TRUE(cache->is_object());
  std::vector<std::string> levels;
  for (const auto& member : cache->members()) levels.push_back(member.first);
  EXPECT_EQ(levels, (std::vector<std::string>{"compile", "placements",
                                              "results"}));
  for (const char* jobs : {"2", "4", "0"}) {
    DriverResult par =
        run_driver({"batch", manifest, "--json", "--jobs", jobs}, "", "");
    ASSERT_EQ(par.exit_code, 0) << par.error;
    EXPECT_EQ(par.output, seq.output) << "--jobs " << jobs;
    EXPECT_EQ(par.error, seq.error) << "--jobs " << jobs;
  }
  // Text mode holds the same property.
  DriverResult t1 = run_driver({"batch", manifest}, "", "");
  DriverResult t8 = run_driver({"batch", manifest, "--jobs", "8"}, "", "");
  EXPECT_EQ(t1.output, t8.output);
}

TEST(Driver, BatchSharedServiceCoalescesAcrossEntries) {
  // Four entries over one (source, spec) pair: the front end compiles
  // exactly once. Pinned via the --json cache block of a fresh driver run.
  const std::string manifest = write_batch_fixture(R"({
    "entries": [
      {"args": ["check", "testt.f", "testt.spec"]},
      {"args": ["deps", "testt.f", "testt.spec"]},
      {"args": ["place", "testt.f", "testt.spec", "--k-best", "2"]},
      {"args": ["lint", "testt.f", "testt.spec"]}
    ]
  })");
  DriverResult r = run_driver({"batch", manifest, "--json"}, "", "");
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("\"compile\":{\"hits\":3,\"misses\":1"),
            std::string::npos)
      << r.output;
}

TEST(Driver, BatchRepeatsCopyTheFirstEntrysResult) {
  // Repeated entries run once: the "results" counters are misses = distinct
  // entry keys and hits = repeats, and each repeat reports the first
  // entry's exit and output, marked cached.
  const std::string manifest = write_batch_fixture(R"({
    "entries": [
      {"name": "a", "args": ["check", "testt.f", "testt.spec"]},
      {"name": "b", "args": ["deps", "testt.f", "testt.spec"]},
      {"name": "a2", "args": ["check", "testt.f", "testt.spec"]},
      {"name": "c", "args": ["check", "coupled.f", "coupled.spec"]},
      {"name": "a3", "args": ["check", "testt.f", "testt.spec"]}
    ]
  })");
  DriverResult r = run_driver({"batch", manifest, "--json"}, "", "");
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("\"results\":{\"hits\":2,\"misses\":3}"),
            std::string::npos)
      << r.output;
  const std::optional<JsonValue> doc = json_parse(r.output);
  ASSERT_TRUE(doc);
  const std::vector<JsonValue>& e = doc->find("entries")->items();
  ASSERT_EQ(e.size(), 5u);
  const bool cached[] = {false, false, true, false, true};
  for (std::size_t i = 0; i < e.size(); ++i)
    EXPECT_EQ(e[i].find("cached")->as_bool(), cached[i]) << i;
  for (std::size_t i : {2u, 4u}) {
    EXPECT_EQ(e[i].find("output")->as_string(),
              e[0].find("output")->as_string());
    EXPECT_EQ(e[i].find("exit")->as_number(), e[0].find("exit")->as_number());
  }
}

TEST(Driver, BatchManyInputsCountersAreJobsInvariant) {
  // 40 distinct inputs (copy i of testt.f ends in i extra newlines), each
  // checked and then listed by deps: every deps entry reuses the front end
  // its check entry built, and the report is byte-identical across --jobs.
  const int kInputs = 40;
  std::vector<std::pair<std::string, std::string>> files;
  std::string checks;
  std::string deps;
  for (int i = 0; i < kInputs; ++i) {
    const std::string name = "testt_" + std::to_string(i) + ".f";
    files.emplace_back(name, lang::testt_source() + std::string(i, '\n'));
    checks += "{\"args\": [\"check\", \"" + name + "\", \"testt.spec\"]},";
    deps += std::string(i ? "," : "") + "{\"args\": [\"deps\", \"" + name +
            "\", \"testt.spec\"]}";
  }
  const std::string manifest = write_batch_fixture(
      "{\"entries\": [" + checks + deps + "]}", files);
  DriverResult seq =
      run_driver({"batch", manifest, "--json", "--jobs", "1"}, "", "");
  ASSERT_EQ(seq.exit_code, 0) << seq.error;
  EXPECT_NE(seq.output.find("\"compile\":{\"hits\":40,\"misses\":40}"),
            std::string::npos)
      << seq.output.substr(seq.output.find("\"cache\""));
  for (const char* jobs : {"2", "4", "0"}) {
    DriverResult par =
        run_driver({"batch", manifest, "--json", "--jobs", jobs}, "", "");
    ASSERT_EQ(par.exit_code, 0) << par.error;
    EXPECT_EQ(par.output, seq.output) << "--jobs " << jobs;
  }
}

TEST(Driver, BatchEntryFailurePropagatesExitOne) {
  const std::string manifest = write_batch_fixture(R"({
    "entries": [
      {"name": "ok", "args": ["check", "testt.f", "testt.spec"]},
      {"name": "budget", "args": ["place", "testt.f", "testt.spec", "--budget", "10"]}
    ]
  })");
  DriverResult r = run_driver({"batch", manifest}, "", "");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("BATCH: 1 ok, 1 failed, 0 errors"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.error.find("no placement"), std::string::npos) << r.error;
}

TEST(Driver, BatchRejectsBadManifests) {
  DriverResult missing = run_driver({"batch", "/nonexistent/manifest.json"},
                                    "", "");
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.error.find("cannot open manifest"), std::string::npos);

  const std::string garbage = write_batch_fixture("{not json");
  DriverResult malformed = run_driver({"batch", garbage}, "", "");
  EXPECT_EQ(malformed.exit_code, 2);
  EXPECT_NE(malformed.error.find("malformed manifest"), std::string::npos);

  const std::string shape = write_batch_fixture(R"({"no_entries": 1})");
  DriverResult bad_shape = run_driver({"batch", shape}, "", "");
  EXPECT_EQ(bad_shape.exit_code, 2);
  EXPECT_NE(bad_shape.error.find("\"entries\""), std::string::npos);
}

TEST(Driver, BatchBadEntriesAreUsageErrors) {
  const std::string manifest = write_batch_fixture(R"({
    "entries": [
      {"name": "ok", "args": ["check", "testt.f", "testt.spec"]},
      {"name": "nested", "args": ["batch", "x.json"]},
      {"name": "bad-flag", "args": ["check", "testt.f", "testt.spec", "--emit", "1"]},
      {"name": "missing-file", "args": ["check", "nope.f", "testt.spec"]}
    ]
  })");
  DriverResult r = run_driver({"batch", manifest}, "", "");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("BATCH: 1 ok, 0 failed, 3 errors"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.error.find("batch cannot nest"), std::string::npos);
  EXPECT_NE(r.error.find("does not accept --emit"), std::string::npos);
  EXPECT_NE(r.error.find("cannot open program file"), std::string::npos);
}

TEST(Driver, BatchManifestNeedsExactlyOnePositional) {
  DriverResult r = run_driver({"batch"}, "", "");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("usage: mptool batch"), std::string::npos);
}

TEST(Driver, SharedServiceMakesRepeatInvocationsIdentical) {
  // An embedding caller can thread one Service through many run_driver
  // calls; the warm second call returns byte-identical output.
  service::Service svc;
  DriverResult cold = run_driver({"place", "p", "s", "--k-best", "4"},
                                 lang::testt_source(), lang::testt_spec(),
                                 &svc);
  ASSERT_EQ(cold.exit_code, 0) << cold.error;
  DriverResult warm = run_driver({"place", "p", "s", "--k-best", "4"},
                                 lang::testt_source(), lang::testt_spec(),
                                 &svc);
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_EQ(svc.stats().compile.hits, 1);
  EXPECT_EQ(svc.stats().placements.hits, 1);
}

TEST(Driver, MalformedNumericFlagValuesExitTwoAndNameTheFlag) {
  // Every numeric flag goes through checked parsing: non-numeric tokens,
  // trailing garbage, overflow and sign errors produce a usage error that
  // names the offending flag — never an uncaught std::stoi exception.
  struct Case {
    const char* flag;
    const char* value;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"--emit", "abc"},
           {"--max", "12x"},
           {"--k-best", "1.5"},
           {"--budget", "99999999999999999999999"},
           {"--jobs", "two"},
           {"--seed", "-1"},        // unsigned: minus sign rejected
           {"--faults", "0x10"},    // base-10 only
           {"--max-errors", "-3"},  // unsigned: minus sign rejected
       }) {
    DriverResult r = place_testt({c.flag, c.value});
    EXPECT_EQ(r.exit_code, 2) << c.flag << "=" << c.value;
    EXPECT_NE(r.error.find(c.flag), std::string::npos)
        << "diagnostic does not name " << c.flag << ": " << r.error;
    EXPECT_NE(r.error.find("invalid numeric value"), std::string::npos)
        << r.error;
  }
}

TEST(Driver, NumericFlagMissingValueExitsTwo) {
  DriverResult r = place_testt({"--emit"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("--emit"), std::string::npos);
}

TEST(Driver, IntOverflowInNumericFlagExitsTwo) {
  // 2^31 does not fit the int-typed flags.
  DriverResult r = place_testt({"--emit", "2147483648"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("--emit"), std::string::npos);
}

TEST(Driver, SpecLevelOverflowIsDiagnosedNotFatal) {
  // A numeric coherence level too large for int must surface as the spec
  // parser's "unknown state" diagnostic (exit 2), not as an uncaught
  // std::out_of_range from std::stoi.
  std::string spec = lang::testt_spec();
  spec += "input airetri 99999999999\n";
  DriverResult r =
      run_driver({"place", "p", "s"}, lang::testt_source(), spec);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("unknown state '99999999999'"), std::string::npos)
      << r.error;
}

TEST(Driver, PlaceJsonCostReportMatchesGoldenTestt) {
  // The machine interface of `mptool place --k-best --json` is pinned
  // byte-for-byte: ranking statistics plus the per-placement cost report
  // simulated against the example decomposition.
  DriverResult r = place_testt({"--k-best", "4", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) +
                       "/place_kbest_testt.json");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(r.output, want.str());
}

TEST(Driver, PlaceJsonCostReportMatchesGoldenCoupled) {
  DriverResult r =
      run_driver({"place", "p", "s", "--k-best", "4", "--json"},
                 lang::coupled_source(), lang::coupled_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) +
                       "/place_kbest_coupled.json");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(r.output, want.str());
}

TEST(Driver, PlaceJsonCostReportIsJobsInvariant) {
  DriverResult seq = place_testt({"--k-best", "4", "--json"});
  ASSERT_EQ(seq.exit_code, 0) << seq.error;
  for (const char* jobs : {"2", "8"}) {
    DriverResult par = place_testt({"--k-best", "4", "--json", "--jobs", jobs});
    ASSERT_EQ(par.exit_code, 0) << par.error;
    EXPECT_EQ(par.output, seq.output) << "--jobs " << jobs;
  }
}

TEST(Driver, PlaceJsonSynthetic24CappedReportIsPinned) {
  // `place --max 16 --json` on the 24-stage synthetic program stops at the
  // solution cap, so which raw solutions fill the cap decides the report.
  // Duplicate projections must not use up the cap. Everything but the
  // search-effort `assignments` field is pinned, the report by FNV-1a.
  for (const char* jobs : {"1", "3"}) {
    SCOPED_TRACE(jobs);
    DriverResult r = run_driver(
        {"place", "p", "s", "--max", "16", "--json", "--jobs", jobs},
        lang::synthetic_source(24), lang::synthetic_spec(24));
    ASSERT_EQ(r.exit_code, 0) << r.error;
    const std::string head = "{\"placements\":16,\"raw_solutions\":16,";
    ASSERT_EQ(r.output.substr(0, head.size()), head);
    const std::size_t tail = r.output.find(",\"truncated\":");
    ASSERT_NE(tail, std::string::npos);
    const std::string rest = r.output.substr(tail);
    EXPECT_EQ(rest.substr(0, 51),
              ",\"truncated\":true,\"report\":[{\"id\":0,\"cost\":310,\"syn");
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : rest) {
      h ^= c;
      h *= 1099511628211ull;
    }
    EXPECT_EQ(rest.size(), 73644u);
    EXPECT_EQ(h, 0x5d38f46e9509aa84ull) << std::hex << "0x" << h;
  }
}

DriverResult opt_coupled(std::vector<std::string> extra = {}) {
  std::vector<std::string> args{"opt", "prog.f", "spec.txt"};
  args.insert(args.end(), extra.begin(), extra.end());
  return run_driver(args, lang::coupled_source(), lang::coupled_spec());
}

TEST(Driver, OptReducesCoupledTrafficWithFullCertificate) {
  DriverResult r = opt_coupled();
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("fused into aggregated messages"),
            std::string::npos);
  EXPECT_NE(r.output.find("20 -> 14 message(s)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bitwise-identical"), std::string::npos);
  EXPECT_NE(r.output.find("OPTIMIZED: all proof obligations hold"),
            std::string::npos);
}

TEST(Driver, OptJsonMatchesGoldenCoupled) {
  // The machine interface of `mptool opt --json` is pinned byte-for-byte:
  // the certificate bits, raw/optimized traffic, and per-pass savings.
  DriverResult r = opt_coupled({"--json"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) + "/opt_coupled.json");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(r.output, want.str());
}

TEST(Driver, OptJsonMatchesGoldenTestt) {
  DriverResult r = run_driver({"opt", "p", "s", "--json"},
                              lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) + "/opt_testt.json");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(r.output, want.str());
}

TEST(Driver, OptOutputIsJobsByteIdentical) {
  // The optimizer consumes the ranked placement list, whose order is
  // enumeration-order independent; its whole report must be too.
  DriverResult seq = opt_coupled({"--json"});
  ASSERT_EQ(seq.exit_code, 0) << seq.error;
  for (const char* jobs : {"2", "8"}) {
    DriverResult par = opt_coupled({"--json", "--jobs", jobs});
    ASSERT_EQ(par.exit_code, 0) << par.error;
    EXPECT_EQ(par.output, seq.output) << "--jobs " << jobs;
  }
}

TEST(Driver, OptNoDynamicSkipsTheSpmdProof) {
  DriverResult r = opt_coupled({"--no-dynamic"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("dynamic proof skipped"), std::string::npos);
  DriverResult j = opt_coupled({"--no-dynamic", "--json"});
  EXPECT_NE(j.output.find("\"dynamic\":false"), std::string::npos);
  EXPECT_NE(j.output.find("\"ok\":true"), std::string::npos);
}

TEST(Driver, OptEmitOutOfRangeFails) {
  DriverResult r = opt_coupled({"--emit", "99999"});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.error.find("does not exist"), std::string::npos);
}

TEST(Driver, PlaceOptimizeRewritesTheRankedPlacements) {
  // place --optimize feeds every ranked placement through the optimizer:
  // coupled's fused exchange shows up in the cost columns and the
  // annotated source (one aggregated sync over both arrays).
  DriverResult raw = run_driver({"place", "p", "s", "--k-best", "1",
                                 "--json"},
                                lang::coupled_source(),
                                lang::coupled_spec());
  ASSERT_EQ(raw.exit_code, 0) << raw.error;
  EXPECT_NE(raw.output.find("\"messages\":20"), std::string::npos);
  DriverResult opt = run_driver({"place", "p", "s", "--k-best", "1",
                                 "--json", "--optimize"},
                                lang::coupled_source(),
                                lang::coupled_spec());
  ASSERT_EQ(opt.exit_code, 0) << opt.error;
  EXPECT_NE(opt.output.find("\"messages\":14"), std::string::npos);

  DriverResult src = run_driver({"place", "p", "s", "--optimize"},
                                lang::coupled_source(),
                                lang::coupled_spec());
  ASSERT_EQ(src.exit_code, 0) << src.error;
  EXPECT_NE(src.output.find("ON ARRAYS: ru,rv"), std::string::npos)
      << src.output;
}

/// Runs `place --all --max 0` under a caller-installed tracer and returns
/// the deterministic event signatures (see trace::Tracer::signatures).
std::vector<std::string> traced_place_signatures(const char* jobs) {
  trace::Tracer tracer;
  trace::ScopedInstall guard(&tracer);
  DriverResult r = place_testt({"--all", "--max", "0", "--jobs", jobs});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  return tracer.signatures();
}

TEST(Driver, TraceEventSetIsDeterministicAcrossRepeatsAndJobs) {
  // The determinism contract of DESIGN.md §13: for a fixed input and an
  // untruncated search, the MULTISET of (phase, cat, name, args) tuples is
  // identical from run to run and for every --jobs value. Timestamps and
  // thread ids vary; signatures exclude them.
  std::vector<std::string> base = traced_place_signatures("1");
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(traced_place_signatures("1"), base) << "repeat differs";
  EXPECT_EQ(traced_place_signatures("2"), base) << "--jobs 2 differs";
  EXPECT_EQ(traced_place_signatures("8"), base) << "--jobs 8 differs";
  // The engine and tool layers both reported in.
  bool engine = false, tool = false;
  for (const std::string& s : base) {
    engine |= s.find("engine/subtree") != std::string::npos;
    tool |= s.find("tool/enumerate") != std::string::npos;
  }
  EXPECT_TRUE(engine);
  EXPECT_TRUE(tool);
}

/// The same for `place --k-best 4`: the streaming book with its cost gate.
std::vector<std::string> traced_kbest_signatures(const char* jobs) {
  trace::Tracer tracer;
  trace::ScopedInstall guard(&tracer);
  DriverResult r = place_testt({"--k-best", "4", "--jobs", jobs});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  return tracer.signatures();
}

TEST(Driver, KBestTraceEventSetIsDeterministicAcrossJobs) {
  // Each subtree book decides on its own which raw solutions get a
  // Placement built, so the `built` count on tool/enumerate — like every
  // other event — is the same for every --jobs value.
  std::vector<std::string> base = traced_kbest_signatures("1");
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(traced_kbest_signatures("2"), base) << "--jobs 2 differs";
  EXPECT_EQ(traced_kbest_signatures("8"), base) << "--jobs 8 differs";
  bool built = false;
  for (const std::string& s : base)
    built |= s.find("tool/enumerate") != std::string::npos &&
             s.find("built") != std::string::npos;
  EXPECT_TRUE(built) << "tool/enumerate carries no built arg";
}

TEST(Driver, TraceFlagWritesChromeTraceJson) {
  const std::string path = unique_temp_path("mptool_trace") + ".json";
  std::remove(path.c_str());
  DriverResult r = place_testt({"--trace", path});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "trace file not written: " << path;
  std::ostringstream got;
  got << in.rdbuf();
  const std::string json = got.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
  EXPECT_NE(json.find("\"engine/subtree\""), std::string::npos);
  EXPECT_NE(json.find("\"tool/enumerate\""), std::string::npos);
  // ProgramModel::build has one span per front-end layer, named like the
  // bench/e2e layers.
  for (const char* name : {"\"dfg.cfg\"", "\"dfg.defuse\"",
                           "\"dfg.depgraph\"", "\"dfg.reaching\"",
                           "\"dfg.patterns\""})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  std::remove(path.c_str());
}

TEST(Driver, TraceToUnwritablePathExitsTwo) {
  DriverResult r =
      place_testt({"--trace", "/nonexistent-dir-mptool/trace.json"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("cannot open trace file"), std::string::npos);
}

TEST(Driver, TraceFlagNeedsAPath) {
  DriverResult r = place_testt({"--trace"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("--trace"), std::string::npos);
}

TEST(Driver, ProfilePrintsStaticAndMeasuredBreakdown) {
  DriverResult r = run_driver({"profile", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("static cost:"), std::string::npos);
  EXPECT_NE(r.output.find("measured:"), std::string::npos);
  EXPECT_NE(r.output.find("| rank |"), std::string::npos);
  EXPECT_NE(r.output.find("| edge"), std::string::npos);
  EXPECT_NE(r.output.find("sync:"), std::string::npos);
}

TEST(Driver, ProfileOutputIsDeterministic) {
  // Every number profile prints is counter-derived (no times), so repeated
  // runs and --jobs values are byte-identical.
  DriverResult a = run_driver({"profile", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  ASSERT_EQ(a.exit_code, 0) << a.error;
  DriverResult b = run_driver({"profile", "p", "s"}, lang::testt_source(),
                              lang::testt_spec());
  DriverResult c = run_driver({"profile", "p", "s", "--jobs", "4"},
                              lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.output, c.output);
}

TEST(Driver, ProfileEmitOutOfRangeFails) {
  DriverResult r = run_driver({"profile", "p", "s", "--emit", "99999"},
                              lang::testt_source(), lang::testt_spec());
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.error.find("does not exist"), std::string::npos);
}

TEST(Driver, ProfileMatchesGoldenOnBundledExamples) {
  // The per-rank, per-edge and per-phase `sync:*` counters are exactly what
  // the overlap exchange and the SPMD sync runner produce, so the whole
  // profile is pinned byte-for-byte.
  for (const char* name : {"testt", "coupled"}) {
    SCOPED_TRACE(name);
    const std::string prog = std::string(MP_EXAMPLES_DIR) + "/" + name + ".f";
    const std::string spec =
        std::string(MP_EXAMPLES_DIR) + "/" + name + ".spec";
    const char* argv[] = {"mptool", "profile", prog.c_str(), spec.c_str()};
    std::ostringstream out, err;
    ASSERT_EQ(run_main(4, argv, out, err), 0) << err.str();
    std::ifstream golden(std::string(MP_TEST_DATA_DIR) + "/profile_" + name +
                         ".txt");
    ASSERT_TRUE(golden.is_open());
    std::ostringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(out.str(), want.str());
  }
}

TEST(Driver, OptTraceCountsEverySyncSpanOnCoupled) {
  // `opt` runs the raw and the optimized placement SPMD on 3 ranks. The
  // raw run exchanges ru and rv apart; the optimized one fuses them into a
  // single "sync:overlap-som:ru+rv" span per rank and execution.
  const std::string path = unique_temp_path("mptool_opt_trace") + ".json";
  std::remove(path.c_str());
  DriverResult r = opt_coupled({"--trace", path});
  ASSERT_EQ(r.exit_code, 0) << r.error;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "trace file not written: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  std::string error;
  const std::optional<JsonValue> doc = json_parse(text.str(), &error);
  ASSERT_TRUE(doc) << error;
  std::map<std::string, int> syncs;
  for (const JsonValue& ev : doc->find("traceEvents")->items()) {
    const std::string& name = ev.find("name")->as_string();
    if (name.rfind("sync:", 0) == 0) ++syncs[name];
  }
  const std::map<std::string, int> want{{"sync:+ reduction:resu", 18},
                                        {"sync:overlap-som:ru", 9},
                                        {"sync:overlap-som:rv", 9},
                                        {"sync:overlap-som:ru+rv", 9}};
  EXPECT_EQ(syncs, want);
}

TEST(Driver, SoakRecoverHealsEveryInjectedFault) {
  DriverResult r = run_driver(
      {"soak", "p", "s", "--seed", "3", "--faults", "12", "--recover"},
      lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error << r.output;
  EXPECT_NE(r.output.find("RECOVERY: all 12/12 injected faults healed"),
            std::string::npos);
}

TEST(Driver, SoakRecoverJsonMatchesGolden) {
  // Healer attribution and heal verdicts are functions of (program, spec,
  // seed) alone — never of thread scheduling — so the recovery campaign
  // JSON is pinned byte-for-byte, exactly like the detection campaign's.
  DriverResult r = run_driver({"soak", "p", "s", "--seed", "7", "--faults",
                               "25", "--recover", "--json"},
                              lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::ifstream golden(std::string(MP_TEST_DATA_DIR) +
                       "/soak_recover_golden.json");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(r.output, want.str());
}

TEST(Driver, SoakRecoverOutputIsByteIdenticalAcrossJobs) {
  // --jobs parallelizes the placement enumeration feeding the campaign;
  // the healed results and the report must not depend on it.
  DriverResult a = run_driver({"soak", "p", "s", "--seed", "5", "--faults",
                               "10", "--recover", "--json", "--jobs", "1"},
                              lang::testt_source(), lang::testt_spec());
  DriverResult b = run_driver({"soak", "p", "s", "--seed", "5", "--faults",
                               "10", "--recover", "--json", "--jobs", "4"},
                              lang::testt_source(), lang::testt_spec());
  EXPECT_EQ(a.exit_code, 0) << a.error;
  EXPECT_EQ(a.output, b.output);
}

TEST(Driver, SoakReportHeaderIsPinned) {
  // The text report's first line names the campaign's fixed configuration:
  // the rank count and the synthetic mesh size.
  struct Example {
    std::string source;
    std::string spec;
  };
  const Example examples[] = {{lang::testt_source(), lang::testt_spec()},
                              {lang::coupled_source(), lang::coupled_spec()}};
  for (const Example& ex : examples) {
    DriverResult d = run_driver({"soak", "p", "s", "--seed", "2", "--faults",
                                 "3"},
                                ex.source, ex.spec);
    EXPECT_EQ(d.exit_code, 0) << d.error << d.output;
    EXPECT_EQ(d.output.substr(0, d.output.find('\n')),
              "fault campaign: seed=2, 3 faults, 3 ranks, 8x8 mesh");
    DriverResult r = run_driver({"soak", "p", "s", "--seed", "2", "--faults",
                                 "3", "--recover"},
                                ex.source, ex.spec);
    EXPECT_EQ(r.exit_code, 0) << r.error << r.output;
    EXPECT_EQ(r.output.substr(0, r.output.find('\n')),
              "recovery campaign: seed=2, 3 faults, 3 ranks, 8x8 mesh");
  }
}

}  // namespace
}  // namespace meshpar::cli
