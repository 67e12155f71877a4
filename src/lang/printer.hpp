// Pretty-printer: regenerates mini-Fortran source from the AST. The codegen
// module uses the `pre_comments` hook to interleave C$-style annotation
// comments (C$ITERATION DOMAIN, C$SYNCHRONIZE) exactly as the paper's
// Figures 9 and 10 do.
#pragma once

#include <functional>
#include <string>

#include "lang/ast.hpp"

namespace meshpar::lang {

struct PrintOptions {
  /// Called before each statement; returned lines are emitted as comment
  /// lines ("C$..." style, caller provides the full text) right above it.
  std::function<std::vector<std::string>(const Stmt&)> pre_comments;
  /// Called after each statement (for trailing synchronization points).
  std::function<std::vector<std::string>(const Stmt&)> post_comments;
};

[[nodiscard]] std::string to_source(const Expr& e);
[[nodiscard]] std::string to_source(const Subroutine& sub,
                                    const PrintOptions& opts = {});
[[nodiscard]] std::string to_source(const Program& prog,
                                    const PrintOptions& opts = {});

}  // namespace meshpar::lang
