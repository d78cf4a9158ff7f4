#include "fs/bytes.hpp"

#include <algorithm>

namespace kosha::fs {

Bytes::Bytes(std::string_view text)
    : buffer_(text.empty() ? nullptr : std::make_shared<std::string>(text)), size_(text.size()) {}

Bytes::Bytes(std::string&& text)
    : buffer_(text.empty() ? nullptr : std::make_shared<std::string>(std::move(text))),
      size_(buffer_ ? buffer_->size() : 0) {}

Bytes Bytes::slice(std::uint64_t offset, std::uint64_t count) const {
  if (offset >= size_) return {};
  Bytes out;
  out.buffer_ = buffer_;
  out.offset_ = offset_ + offset;
  out.size_ = static_cast<std::size_t>(std::min<std::uint64_t>(count, size_ - offset));
  return out;
}

std::size_t Bytes::own(std::size_t keep) {
  keep = std::min(keep, size_);
  if (buffer_ != nullptr && buffer_.use_count() == 1) {
    buffer_->resize(offset_ + keep);
    buffer_->erase(0, offset_);
    offset_ = 0;
    size_ = keep;
    return 0;
  }
  buffer_ = std::make_shared<std::string>(view().substr(0, keep));
  offset_ = 0;
  size_ = keep;
  return keep;
}

std::size_t Bytes::write(std::uint64_t offset, const Bytes& data) {
  if (offset == 0 && data.size_ >= size_ && data.buffer_ != nullptr && data.offset_ == 0 &&
      data.size_ == data.buffer_->size()) {
    *this = data;
    return 0;
  }
  if (data.empty() && offset <= size_) return 0;
  // Holding `data` keeps its bytes alive and, when it views this very
  // buffer, forces own() to copy rather than reshape it underneath us.
  const Bytes source = data;  // NOLINT(performance-unnecessary-copy-initialization)
  const std::size_t copied = own(size_);
  const std::uint64_t end = offset + source.size();
  if (end > size_) {
    buffer_->resize(end, '\0');
    size_ = end;
  }
  std::copy(source.view().begin(), source.view().end(),
            buffer_->begin() + static_cast<std::ptrdiff_t>(offset));
  return copied;
}

std::size_t Bytes::resize(std::uint64_t size) {
  if (size == size_) return 0;
  if (size == 0) {
    *this = Bytes{};
    return 0;
  }
  const std::size_t copied = own(size);
  buffer_->resize(size, '\0');
  size_ = size;
  return copied;
}

std::size_t Bytes::append(const Bytes& next) {
  if (next.empty()) return 0;
  if (empty()) {
    *this = next;
    return 0;
  }
  if (buffer_ == next.buffer_ && offset_ + size_ == next.offset_) {
    size_ += next.size_;
    return 0;
  }
  return write(size_, next);
}

}  // namespace kosha::fs
