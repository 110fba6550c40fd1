#include "storage/pager/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "storage/crc32c.h"
#include "storage/serializer.h"

namespace strg::storage {

namespace {

api::Status Errno(const std::string& what, const std::string& path) {
  return api::Status::IoError(what + " " + path + ": " +
                              std::strerror(errno));
}

// Page header field offsets (see the layout comment in page_file.h).
constexpr size_t kCrcOff = 0;
constexpr size_t kTypeOff = 4;
constexpr size_t kNextOff = 8;
constexpr size_t kLenOff = 12;

}  // namespace

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

api::StatusOr<std::unique_ptr<PageFile>> PageFile::Create(
    const std::string& path, size_t page_size) {
  if (page_size < kMinPageSize || page_size > (64u << 20)) {
    return api::Status::InvalidArgument(
        "page file: page_size out of range: " + std::to_string(page_size));
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("page file: create of", path);

  std::unique_ptr<PageFile> file(new PageFile());
  file->path_ = path;
  file->fd_ = fd;
  file->page_size_ = page_size;
  file->num_pages_.store(1, std::memory_order_relaxed);  // header page
  api::Status st = file->WriteHeader();
  if (!st.ok()) return st;
  return file;
}

api::StatusOr<std::unique_ptr<PageFile>> PageFile::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) {
      return api::Status::NotFound("page file: no such file: " + path);
    }
    return Errno("page file: open of", path);
  }
  std::unique_ptr<PageFile> file(new PageFile());
  file->path_ = path;
  file->fd_ = fd;

  // The header page must be read before page_size_ is known: peek at the
  // fixed-width prefix, validate, then re-check the CRC over the real size.
  char prefix[kPageHeaderBytes + 32];
  ssize_t n = ::pread(fd, prefix, sizeof(prefix), 0);
  if (n < static_cast<ssize_t>(kPageHeaderBytes + 12)) {
    return api::Status::Corruption("page file: truncated header page: " +
                                   path);
  }
  const char* body = prefix + kPageHeaderBytes;
  if (GetLe32(body) != kMagic) {
    return api::Status::Corruption("page file: bad magic: " + path);
  }
  if (GetLe32(body + 4) != kVersion) {
    return api::Status::Corruption("page file: unsupported version: " + path);
  }
  const uint32_t page_size = GetLe32(body + 8);
  if (page_size < kMinPageSize || page_size > (64u << 20)) {
    return api::Status::Corruption("page file: absurd page size: " + path);
  }
  file->page_size_ = page_size;
  file->num_pages_.store(1, std::memory_order_relaxed);

  PageView header;
  api::Status st = file->ReadPage(0, &header);
  if (!st.ok()) return st;
  if (header.type != kHeaderPage) {
    return api::Status::Corruption("page file: page 0 is not a header: " +
                                   path);
  }
  // The Reader signals truncation by exception; the payload already passed
  // its CRC, so a decode failure here is real corruption, not a torn write.
  try {
    Reader r(header.payload);
    r.GetU32();  // magic (validated above)
    r.GetU32();  // version
    r.GetU32();  // page_size
    file->num_pages_.store(r.GetU64(), std::memory_order_relaxed);
    file->free_head_ = r.GetU32();
    file->free_count_ = r.GetU64();
    file->root_ = r.GetU64();
  } catch (const std::out_of_range&) {
    return api::Status::Corruption("page file: truncated header payload: " +
                                   path);
  }
  if (file->num_pages() == 0) {
    return api::Status::Corruption("page file: header claims zero pages: " +
                                   path);
  }
  return file;
}

api::Status PageFile::WriteRaw(uint32_t page_id, const char* data) const {
  size_t done = 0;
  const off_t base = static_cast<off_t>(page_id) *
                     static_cast<off_t>(page_size_);
  while (done < page_size_) {
    ssize_t n = ::pwrite(fd_, data + done, page_size_ - done,
                         base + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("page file: write to", path_);
    }
    done += static_cast<size_t>(n);
  }
  return api::Status::Ok();
}

api::Status PageFile::WritePage(uint32_t page_id, uint8_t type,
                                uint32_t next_page,
                                std::string_view payload) {
  if (payload.size() > payload_capacity()) {
    return api::Status::InvalidArgument("page file: payload exceeds capacity");
  }
  if (page_id >= num_pages()) {
    return api::Status::InvalidArgument("page file: write past allocation");
  }
  std::string frame(page_size_, '\0');
  frame[kTypeOff] = static_cast<char>(type);
  PutLe32(frame.data() + kNextOff, next_page);
  PutLe32(frame.data() + kLenOff, static_cast<uint32_t>(payload.size()));
  // An empty payload may carry a null data() (memcpy's source must not be
  // null even for zero bytes).
  if (!payload.empty()) {
    std::memcpy(frame.data() + kPageHeaderBytes, payload.data(),
                payload.size());
  }
  PutLe32(frame.data() + kCrcOff,
          Crc32c(frame.data() + kTypeOff, page_size_ - kTypeOff));
  return WriteRaw(page_id, frame.data());
}

api::Status PageFile::ReadPage(uint32_t page_id, PageView* out) const {
  if (page_id >= num_pages()) {
    return api::Status::InvalidArgument(
        "page file: read past allocation: page " + std::to_string(page_id));
  }
  std::string frame(page_size_, '\0');
  size_t done = 0;
  const off_t base = static_cast<off_t>(page_id) *
                     static_cast<off_t>(page_size_);
  while (done < page_size_) {
    ssize_t n = ::pread(fd_, frame.data() + done, page_size_ - done,
                        base + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("page file: read of", path_);
    }
    if (n == 0) {
      return api::Status::IoError("page file: short read (page " +
                                  std::to_string(page_id) + " of " + path_ +
                                  ")");
    }
    done += static_cast<size_t>(n);
  }
  const uint32_t want = GetLe32(frame.data() + kCrcOff);
  const uint32_t got = Crc32c(frame.data() + kTypeOff,
                              page_size_ - kTypeOff);
  if (want != got) {
    return api::Status::Corruption("page file: CRC mismatch on page " +
                                   std::to_string(page_id) + " of " + path_);
  }
  const uint32_t len = GetLe32(frame.data() + kLenOff);
  if (len > payload_capacity()) {
    return api::Status::Corruption("page file: absurd payload length on "
                                   "page " + std::to_string(page_id));
  }
  out->type = static_cast<uint8_t>(frame[kTypeOff]);
  out->next_page = GetLe32(frame.data() + kNextOff);
  out->payload.assign(frame.data() + kPageHeaderBytes, len);
  return api::Status::Ok();
}

api::StatusOr<uint32_t> PageFile::Allocate() {
  if (free_head_ != kNoPage) {
    const uint32_t page = free_head_;
    PageView view;
    api::Status st = ReadPage(page, &view);
    if (!st.ok()) return st;
    if (view.type != kFreePage) {
      return api::Status::Corruption("page file: free list points at a "
                                     "non-free page " + std::to_string(page));
    }
    free_head_ = view.next_page;
    --free_count_;
    return page;
  }
  const uint64_t page = num_pages_.fetch_add(1, std::memory_order_relaxed);
  if (page > kNoPage - 2) {
    return api::Status::InvalidArgument("page file: page id space exhausted");
  }
  // Materialize the page now so a torn crash leaves a CRC-valid (empty)
  // page rather than a hole.
  api::Status st = WritePage(static_cast<uint32_t>(page), kFreePage, kNoPage,
                             {});
  if (!st.ok()) return st;
  return static_cast<uint32_t>(page);
}

api::Status PageFile::Free(uint32_t page_id) {
  if (page_id == 0 || page_id >= num_pages()) {
    return api::Status::InvalidArgument("page file: cannot free page " +
                                        std::to_string(page_id));
  }
  api::Status st = WritePage(page_id, kFreePage, free_head_, {});
  if (!st.ok()) return st;
  free_head_ = page_id;
  ++free_count_;
  return api::Status::Ok();
}

api::Status PageFile::WriteHeader() {
  Writer w;
  w.PutU32(kMagic);
  w.PutU32(kVersion);
  w.PutU32(static_cast<uint32_t>(page_size_));
  w.PutU64(num_pages());
  w.PutU32(free_head_);
  w.PutU64(free_count_);
  w.PutU64(root_);
  return WritePage(0, kHeaderPage, kNoPage, w.bytes());
}

api::Status PageFile::Sync() {
  api::Status st = WriteHeader();
  if (!st.ok()) return st;
  if (::fsync(fd_) != 0) return Errno("page file: fsync of", path_);
  return api::Status::Ok();
}

}  // namespace strg::storage
