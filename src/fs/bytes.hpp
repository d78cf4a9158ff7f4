#pragma once

// File content as an immutable, refcounted buffer: a shared buffer plus an
// offset and a length.
//
// A file's bytes are copied once, where they enter the system (the mount,
// the POSIX layer, the baseline NFS mount), and every later holder shares
// that buffer by reference: koshad, the WRITE RPC's invoke closure, the
// primary's inode, each mirror's inode, each outstanding read slice and
// the whole-file read that stitches those slices back together (append
// widens a view over adjacent slices of one buffer instead of copying).
// This is the IPFS idea in PAPERS.md — content shared by reference to an
// immutable object — applied to one simulated process.
//
// Bytes has value semantics. The mutators (write, resize, append) are
// copy-on-write: they work in place when this object holds the only
// reference to its buffer, and copy the viewed bytes into a fresh buffer
// when anything else shares it, so a mutation through one holder never
// changes what another holder sees. A shared buffer is never mutated.
// Accounting above this type stays logical: a store counts size(), never
// how many holders share the buffer behind it. Holders of one buffer must
// live on one thread: the in-place check reads the reference count without
// synchronising with the other holders' reads.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace kosha::fs {

class Bytes {
 public:
  Bytes() = default;
  // Implicit from text: each copies the bytes into a fresh buffer (the one
  // copy where content enters), except the rvalue string, which is adopted.
  Bytes(std::string_view text);  // NOLINT(google-explicit-constructor)
  Bytes(const char* text)  // NOLINT(google-explicit-constructor)
      : Bytes(std::string_view(text)) {}
  Bytes(const std::string& text)  // NOLINT(google-explicit-constructor)
      : Bytes(std::string_view(text)) {}
  Bytes(std::string&& text);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::string_view view() const {
    return buffer_ ? std::string_view(buffer_->data() + offset_, size_) : std::string_view{};
  }
  operator std::string_view() const { return view(); }  // NOLINT(google-explicit-constructor)
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Never null, even when empty (memcpy's source must not be).
  [[nodiscard]] const char* data() const { return buffer_ ? buffer_->data() + offset_ : ""; }
  [[nodiscard]] char operator[](std::size_t i) const { return view()[i]; }

  /// Up to `count` bytes from `offset`, sharing this buffer (empty past
  /// the end).
  [[nodiscard]] Bytes slice(std::uint64_t offset, std::uint64_t count) const;

  /// Whether both objects view the same buffer (never true when either is
  /// empty-handed).
  [[nodiscard]] bool shares_buffer_with(const Bytes& other) const {
    return buffer_ != nullptr && buffer_ == other.buffer_;
  }

  /// Store `data` at `offset`, zero-filling any gap past the end. A write
  /// from offset 0 that covers all of this object's bytes adopts `data`'s
  /// buffer when `data` views all of it; a slice of a larger buffer is
  /// copied instead, so a small file never pins a large one. Returns the
  /// bytes copied out of a shared buffer to make room (0 when the write
  /// adopted or ran in place).
  std::size_t write(std::uint64_t offset, const Bytes& data);
  /// Shrink, or grow with zeros. Returns the bytes copied out of a shared
  /// buffer (0 in place; shrinking to 0 just lets go of the buffer).
  std::size_t resize(std::uint64_t size);
  /// Add `next`'s bytes at the end. When `next` starts where this view
  /// ends in the same buffer the view just widens, and when this is empty
  /// it shares `next`; neither copies. Otherwise the bytes are appended
  /// copy-on-write, like write(size(), next). Returns the bytes copied out
  /// of a shared buffer.
  std::size_t append(const Bytes& next);

  friend bool operator==(const Bytes& a, std::string_view b) { return a.view() == b; }

 private:
  /// Make the buffer private and exactly the first `keep` viewed bytes
  /// long, in place when nothing else shares it. Returns the bytes copied
  /// out of a shared buffer.
  std::size_t own(std::size_t keep);

  std::shared_ptr<std::string> buffer_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

}  // namespace kosha::fs
