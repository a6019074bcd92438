// PktStore — the paper's proposed key-value store (§4.2), built.
//
// "Packets as persistent in-memory data structures": received packets are
// retained in the PM-backed packet pool, described by persistent packet
// metadata (PPktMeta), indexed by a persistent skip list whose nodes come
// from the same pool. The storage properties are implemented by
// *repurposed networking features*:
//
//   integrity    — the NIC-verified TCP checksum, narrowed to the value
//                  slice in ones'-complement arithmetic (no CPU pass over
//                  the value bytes);
//   timestamps   — NIC hardware timestamps carried in the metadata;
//   search       — the skip list of packet metadata ("implementable using
//                  packet metadata, although some additional list entries
//                  may be needed" — the index node is that extra entry);
//   allocation   — the network buffer allocator serves data, metadata and
//                  index nodes (freelist pops, not a general PM malloc);
//   zero copy    — values stay in the DMA'd packet buffer; reads for
//                  transmission emit frag-backed packets (TSO-style).
//
// Every reuse is individually toggleable for the ablation benches.
#pragma once

#include <string_view>

#include "container/pskiplist.h"
#include "core/ppktmeta.h"
#include "obs/metrics.h"

namespace papm::core {

// Who executes the skip-list level-0 append for a sliced PUT: the host
// CPU, the NIC's index engine (CARGO-style near-data insert, doorbell +
// completion), or an automatic size-based choice. The engine's fixed
// command cost beats the host only once the host-side per-byte work it
// displaces (cold-line persists, per-segment appends) is large enough —
// auto_ offloads values of at least kNicInsertMinBytes.
enum class InsertPolicy : u8 { host = 0, nic = 1, auto_ = 2 };

// The auto_ crossover threshold (the measured crossover, EXPERIMENTS.md).
inline constexpr u32 kNicInsertMinBytes = 2048;

struct PktStoreOptions {
  bool reuse_checksum = true;
  bool reuse_timestamp = true;
  bool zero_copy = true;
  bool persistence = true;  // §3-style knob: flush value bytes
  // Charge the paper's lighter request handling (no LevelDB WriteBatch);
  // off = charge the baseline's full request-preparation cost.
  bool light_prep = true;
  // NIC index-engine offload policy. Only sliced, zero-copy PUTs are
  // eligible (the engine operates on NIC-placed slots); ineligible PUTs
  // fall back to the host path regardless of policy.
  InsertPolicy insert = InsertPolicy::host;
  // Index policy (selective persistence: shadow_towers keeps upper skip
  // list towers DRAM-only and rebuilds them at recovery). recover() must
  // be called with the same options the store was created with.
  container::PSkipListOptions index;
};

class PktStore {
 public:
  // `pktpool` must be backed by a PmArena (packet buffers in PM — the
  // PASTE substrate); its PmPool provides all persistent allocations.
  static PktStore create(net::PktBufPool& pktpool, std::string_view name,
                         PktStoreOptions opts = PktStoreOptions());

  // Reattaches after a crash and re-registers every live data buffer
  // with the fresh (volatile) packet pool.
  static Result<PktStore> recover(net::PktBufPool& pktpool,
                                  std::string_view name,
                                  PktStoreOptions opts = PktStoreOptions());

  // §4.2 ingest: the value for `key` is the bytes of `ranges` in order,
  // one chain element per range (a range's offset is absolute within its
  // packet, e.g. past TCP + HTTP headers). The store takes its own
  // reference on each packet's data; the caller still frees the packets.
  Status put_pkts(std::string_view key, std::span<const net::PktRange> ranges,
                  storage::OpBreakdown* bd = nullptr);

  // Application-originated put (no carrying packet).
  Status put_bytes(std::string_view key, std::span<const u8> value,
                   storage::OpBreakdown* bd = nullptr);

  // Copy-out read, checksum-verified.
  [[nodiscard]] Result<std::vector<u8>> get(std::string_view key) const;

  // One index search: the head metadata of `key`'s chain. The zero-copy
  // read path sends from this handle without searching again.
  [[nodiscard]] Result<u64> find(std::string_view key) const;

  // Whole-value length of the chain at `head` (its head's total_len).
  [[nodiscard]] u64 value_len(u64 head) const {
    return chain_.meta(head)->total_len;
  }

  // Zero-copy read for transmission from a found head: `prefix` (the
  // HTTP response head, at most kMss bytes) in the first packet's linear
  // area, the stored bytes as frags, packed to full segments — ready for
  // TcpConn::send_pkt (PChain::emit_pkts).
  [[nodiscard]] Result<std::vector<net::PktBuf*>> get_as_pkts(
      u64 head, std::span<const u8> prefix = {}) const;

  struct ValueMeta {
    u64 len;
    CsumKind csum_kind;
    i64 hw_tstamp;  // of the first segment
    u32 segments;
  };
  [[nodiscard]] Result<ValueMeta> stat(std::string_view key) const;

  // Integrity scrub of one key (recompute vs stored checksum).
  [[nodiscard]] Status verify(std::string_view key) const;

  bool erase(std::string_view key);

  // fn(key, meta); ordered by key; early-stop on false.
  template <typename Fn>
  void scan(std::string_view from, std::string_view to, Fn&& fn) const {
    index_.scan(from, to, [&](std::string_view k, u64 head) {
      return fn(k, stat_of(head));
    });
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] Status validate() const { return index_.validate(); }

  // Recovery cost split of the index rebuild (backbone scan vs. tower
  // relink) from the last recover() — see PSkipList::RecoverStats.
  [[nodiscard]] const container::PSkipList::RecoverStats& index_recover_stats()
      const noexcept {
    return index_.recover_stats();
  }

  // Back-to-back hint: warms the index traversal charging (the same
  // batching effect the baseline enjoys; keeps comparisons fair).
  void set_batched(bool b) noexcept { index_.set_warm(b); }

  // Group-commit routing: value/metadata flushes and index publications
  // ride the per-shard epoch fences; chain frees of durably-referenced
  // heads are quarantined until their epoch retires.
  void set_batcher(pm::FlushBatcher* b) noexcept {
    chain_.set_batcher(b);
    index_.set_batcher(b);
  }

  // Mirrors op counts into a (per-shard) registry: store.puts /
  // store.gets / store.erases.
  void set_metrics(obs::MetricRegistry* r) {
    m_puts_ = r != nullptr ? &r->counter("store.puts") : nullptr;
    m_gets_ = r != nullptr ? &r->counter("store.gets") : nullptr;
    m_erases_ = r != nullptr ? &r->counter("store.erases") : nullptr;
    m_nic_inserts_ =
        r != nullptr ? &r->counter("nic.inserts_offloaded") : nullptr;
  }

 private:
  PktStore(net::PktBufPool& pktpool, net::PmArena& arena,
           container::PSkipList index, PktStoreOptions opts)
      : chain_(arena.device(), arena.pool(), pktpool),
        index_(std::move(index)),
        opts_(opts) {}

  [[nodiscard]] ValueMeta stat_of(u64 head) const;
  void retire_chain(u64 head);
  [[nodiscard]] PChain::IngestOptions ingest_opts() const {
    return {opts_.reuse_checksum, opts_.reuse_timestamp, opts_.zero_copy,
            opts_.persistence};
  }
  void charge_prep(storage::OpBreakdown* bd) const;
  // The tail every put shares once its chain is built: index `head` under
  // `key` (the insert's time lands in `insert_ns` when given) and, if the
  // insert fails, free the chain at once — it never became reachable.
  // Returns the head of the chain the insert replaced (0 for a new key)
  // for retire_chain.
  Result<u64> index_chain(std::string_view key, Result<u64> head,
                          SimTime* insert_ns);
  // NIC index-engine variant of put_pkts: host pays doorbell + completion
  // (and, un-batched, waits out the engine); ingest + insert execute with
  // their charges diverted off the host clock.
  Status put_pkts_offloaded(std::string_view key,
                            std::span<const net::PktRange> ranges,
                            storage::OpBreakdown* bd);

  mutable PChain chain_;
  container::PSkipList index_;
  PktStoreOptions opts_;
  obs::Counter* m_puts_ = nullptr;
  obs::Counter* m_gets_ = nullptr;
  obs::Counter* m_erases_ = nullptr;
  obs::Counter* m_nic_inserts_ = nullptr;
};

}  // namespace papm::core
