#include "net/pktbuf.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/inet_csum.h"

namespace papm::net {

// --- HeapArena -------------------------------------------------------------

Result<u64> HeapArena::alloc(u64 size) {
  env_->clock().advance(env_->cost.pool_alloc_ns);
  const u64 h = next_handle_++;
  blocks_.emplace(h, std::vector<u8>(size));
  return h;
}

void HeapArena::free(u64 handle, u64 /*size*/) {
  env_->clock().advance(env_->cost.pool_alloc_ns / 2);
  blocks_.erase(handle);
}

u8* HeapArena::data(u64 handle, u64 len) {
  auto it = blocks_.find(handle);
  if (it == blocks_.end() || len > it->second.size()) {
    throw std::out_of_range("HeapArena: bad handle or length");
  }
  return it->second.data();
}

void HeapArena::store_dma(u64 handle, std::span<const u8> data) {
  std::memcpy(this->data(handle, data.size()), data.data(), data.size());
}

// --- PktBufPool --------------------------------------------------------------

PktBuf* PktBufPool::alloc(u32 data_cap) {
  if (meta_limit_ != 0 && live_meta_ >= meta_limit_) return nullptr;
  auto dh = arena_->alloc(data_cap);
  if (!dh.ok()) return nullptr;

  PktBuf* pb;
  if (!free_meta_.empty()) {
    pb = free_meta_.back();
    free_meta_.pop_back();
  } else {
    slab_.emplace_back();
    pb = &slab_.back();
  }
  *pb = PktBuf{};
  pb->owner = this;
  pb->data_h = dh.value();
  pb->cap = data_cap;
  pb->in_use = true;
  pb->tstamp = env_->now();
  ref_data(pb->data_h);
  live_meta_++;
  return pb;
}

PktBuf* PktBufPool::clone(const PktBuf& pb) {
  assert(pb.in_use);
  if (meta_limit_ != 0 && live_meta_ >= meta_limit_) return nullptr;
  env_->clock().advance(env_->cost.pool_alloc_ns);  // metadata-only alloc
  PktBuf* c;
  if (!free_meta_.empty()) {
    c = free_meta_.back();
    free_meta_.pop_back();
  } else {
    slab_.emplace_back();
    c = &slab_.back();
  }
  *c = pb;  // copy all metadata fields
  c->owner = this;
  c->next = c->prev = nullptr;
  c->rb = container::RbHook{};
  c->in_use = true;
  ref_data(c->data_h);
  if (c->sliced()) ref_data(c->slice_h);
  for (int i = 0; i < c->nr_frags; i++) ref_data(c->frags[i].data_h);
  live_meta_++;
  return c;
}

void PktBufPool::free(PktBuf* pb) {
  if (pb == nullptr) return;
  assert(pb->in_use);
  assert(pb->owner == this && "packet freed into a foreign pool shard");
  if (unref(pb->data_h)) arena_->free(pb->data_h, pb->cap);
  if (pb->sliced() && unref(pb->slice_h)) {
    arena_->free(pb->slice_h, pb->slice_cap);
  }
  for (int i = 0; i < pb->nr_frags; i++) {
    if (unref(pb->frags[i].data_h)) {
      arena_->free(pb->frags[i].data_h, pb->frags[i].cap);
    }
  }
  pb->in_use = false;
  free_meta_.push_back(pb);
  live_meta_--;
}

u64 PktBufPool::adopt_data(PktBuf& pb) {
  assert(pb.in_use);
  ref_data(pb.data_h);
  return pb.data_h;
}

void PktBufPool::unref_data(u64 data_h, u32 cap) {
  if (unref(data_h)) arena_->free(data_h, cap);
}

bool PktBufPool::attach_slice(PktBuf& pb, u32 len) {
  assert(pb.in_use && pb.slice_h == 0);
  auto sh = arena_->alloc(len);
  if (!sh.ok()) return false;
  pb.slice_h = sh.value();
  pb.slice_cap = len;
  pb.slice_off = 0;
  ref_data(pb.slice_h);
  return true;
}

u64 PktBufPool::adopt_slice(PktBuf& pb) {
  assert(pb.in_use && pb.sliced());
  ref_data(pb.slice_h);
  return pb.slice_h;
}

Status PktBufPool::add_frag(PktBuf& pb, u64 data_h, u32 len, u32 off, u32 cap) {
  if (pb.nr_frags >= PktBuf::kMaxFrags) return Errc::out_of_space;
  pb.frags[pb.nr_frags++] = {data_h, off, len, cap != 0 ? cap : off + len};
  ref_data(data_h);
  return Errc::ok;
}

u32 PktBufPool::inet_sum_from(const PktBuf& pb, u32 from) {
  u32 sum = 0;
  std::size_t at = 0;
  for_each_chunk(pb, from, [&](std::span<const u8> chunk) {
    sum += inet_sum_at(chunk, at);
    at += chunk.size();
  });
  return sum;
}

void PktBufPool::ref_data(u64 handle) { data_refs_[handle]++; }

bool PktBufPool::unref(u64 handle) {
  auto it = data_refs_.find(handle);
  assert(it != data_refs_.end());
  if (--it->second == 0) {
    data_refs_.erase(it);
    return true;
  }
  return false;
}

std::vector<PktRange> window(std::span<const PktRange> ranges,
                             std::size_t skip, std::size_t len) {
  std::vector<PktRange> out;
  for (const PktRange& r : ranges) {
    if (len == 0) break;
    if (skip >= r.len) {
      skip -= r.len;
      continue;
    }
    const u32 take = static_cast<u32>(std::min<std::size_t>(r.len - skip, len));
    out.push_back({r.pb, r.off + static_cast<u32>(skip), take});
    len -= take;
    skip = 0;
  }
  return out;
}

std::vector<u8> flatten(std::span<const PktRange> ranges, std::size_t limit) {
  std::size_t total = 0;
  for (const PktRange& r : ranges) total += r.len;
  std::vector<u8> out;
  out.reserve(std::min(total, limit));
  for (const PktRange& r : ranges) {
    if (out.size() >= limit) break;
    const auto b =
        r.bytes().first(std::min<std::size_t>(r.len, limit - out.size()));
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

}  // namespace papm::net
