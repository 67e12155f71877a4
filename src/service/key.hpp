// Content addressing for the service cache (DESIGN.md §15): a cache key is
// the 128-bit FNV-1a digest of a length-prefixed part list, rendered as 32
// hex digits. Length prefixes make the encoding injective (["ab","c"] and
// ["a","bc"] hash differently); two independent 64-bit FNV streams with
// distinct offset bases give collision odds far below anything the keys of
// one invocation can surface.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace meshpar::service {

/// Digest of the concatenation of `parts`, each length-prefixed.
[[nodiscard]] std::string digest(std::initializer_list<std::string_view> parts);

/// The short (8-hex-digit) prefix used in human-facing surfaces: trace
/// events and the batch report.
[[nodiscard]] std::string short_key(std::string_view key);

}  // namespace meshpar::service
