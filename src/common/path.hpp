#pragma once

// Path utilities for the virtual /kosha namespace.
//
// Paths are absolute, '/'-separated, and normalised (no '.', '..', or empty
// components). The root is "/". Kosha's placement logic operates on the
// component list; see kosha/placement.hpp.

#include <string>
#include <string_view>
#include <vector>

namespace kosha {

/// Split an absolute path into components ("/a/b/c" -> {"a","b","c"}).
/// Repeated separators are collapsed; "/" yields an empty vector.
[[nodiscard]] std::vector<std::string> split_path(std::string_view path);

/// Join components into an absolute path ({} -> "/", {"a","b"} -> "/a/b").
[[nodiscard]] std::string join_path(const std::vector<std::string>& components);

/// Append one component to an absolute path.
[[nodiscard]] std::string path_child(std::string_view parent, std::string_view name);

/// Parent directory of an absolute path ("/a/b" -> "/a", "/a" -> "/").
[[nodiscard]] std::string path_parent(std::string_view path);

/// Final component ("/a/b" -> "b", "/" -> "").
[[nodiscard]] std::string path_basename(std::string_view path);

/// Normalise: absolute, collapse separators, resolve "." (".." rejected by
/// returning the empty string — the virtual FS does not support it).
[[nodiscard]] std::string normalize_path(std::string_view path);

/// Number of components ("/" -> 0, "/a/b" -> 2).
[[nodiscard]] std::size_t path_depth(std::string_view path);

/// True if `path` equals `ancestor` or lies beneath it, compared component
/// by component (separators collapse; "/ab" is not within "/a"; "" and "/"
/// contain everything). Allocates nothing.
[[nodiscard]] bool path_is_within(std::string_view path, std::string_view ancestor);

}  // namespace kosha
