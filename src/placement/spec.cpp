#include "placement/spec.hpp"

#include "support/numeric.hpp"
#include "support/strings.hpp"

namespace meshpar::placement {

using automaton::EntityKind;

std::optional<EntityKind> parse_entity(const std::string& word) {
  std::string w = to_lower(word);
  if (w == "node" || w == "nodes") return EntityKind::kNode;
  if (w == "edge" || w == "edges") return EntityKind::kEdge;
  if (w == "triangle" || w == "triangles") return EntityKind::kTriangle;
  if (w == "tetra" || w == "tetrahedra" || w == "tetrahedron")
    return EntityKind::kTetra;
  return std::nullopt;
}

namespace {

std::optional<int> parse_level(const std::string& word) {
  std::string w = to_lower(word);
  if (w == "coherent" || w == "replicated") return 0;
  if (w == "incoherent" || w == "partial" || w == "stale") return 1;
  // Numeric level for deep-halo automata. parse_number rejects overflow
  // (e.g. "99999999999"), so an absurd level surfaces as the caller's
  // "unknown state" diagnostic instead of an uncaught std::out_of_range.
  if (!w.empty() && w.find_first_not_of("0123456789") == std::string::npos)
    return parse_number<int>(w);
  return std::nullopt;
}

}  // namespace

const LoopRule* PartitionSpec::rule_for(const lang::Stmt& do_stmt) const {
  if (do_stmt.kind != lang::StmtKind::kDo) return nullptr;
  if (do_stmt.do_hi->kind != lang::ExprKind::kVarRef) return nullptr;
  for (const auto& r : loop_rules) {
    if (r.var == do_stmt.do_var && r.bound == do_stmt.do_hi->name)
      return &r;
  }
  return nullptr;
}

PartitionSpec parse_spec(std::string_view text, DiagnosticEngine& diags) {
  PartitionSpec spec;
  std::uint32_t lineno = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++lineno;
    std::string line = raw;
    if (auto hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    auto words = split_ws(line);
    if (words.empty()) continue;
    SrcLoc loc{lineno, 1};
    const std::string& kw = words[0];

    if (kw == "pattern") {
      if (words.size() != 2) {
        diags.error(loc, "expected: pattern <name>");
        continue;
      }
      spec.pattern_name = words[1];
    } else if (kw == "loopvar") {
      // loopvar V over B partition E
      if (words.size() != 6 || words[2] != "over" || words[4] != "partition") {
        diags.error(loc, "expected: loopvar <var> over <bound> partition "
                         "<entity>");
        continue;
      }
      auto entity = parse_entity(words[5]);
      if (!entity) {
        diags.error(loc, "unknown entity '" + words[5] + "'");
        continue;
      }
      spec.loop_rules.push_back(
          {to_lower(words[1]), to_lower(words[3]), *entity});
    } else if (kw == "array") {
      if (words.size() != 3) {
        diags.error(loc, "expected: array <name> <entity>");
        continue;
      }
      auto entity = parse_entity(words[2]);
      if (!entity) {
        diags.error(loc, "unknown entity '" + words[2] + "'");
        continue;
      }
      spec.arrays[to_lower(words[1])] = *entity;
    } else if (kw == "input" || kw == "output") {
      if (words.size() != 3) {
        diags.error(loc, "expected: " + kw + " <name> <state>");
        continue;
      }
      auto level = parse_level(words[2]);
      if (!level) {
        diags.error(loc, "unknown state '" + words[2] + "'");
        continue;
      }
      auto& dst = kw == "input" ? spec.inputs : spec.outputs;
      if (!dst.emplace(to_lower(words[1]), *level).second)
        diags.error(loc, "duplicate " + kw + " for '" + words[1] + "'");
    } else {
      diags.error(loc, "unknown directive '" + kw + "'");
    }
  }
  if (spec.pattern_name.empty())
    diags.error({}, "specification is missing a 'pattern' directive");
  return spec;
}

}  // namespace meshpar::placement
