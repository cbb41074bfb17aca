#include "sim/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "routing/deft_routing.hpp"
#include "traffic/app_profiles.hpp"

namespace deft {
namespace {

constexpr char kMagic[8] = {'D', 'E', 'F', 'T', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;  // magic, version, len, sum

// Indices and cursors (std::size_t) are stored as 8-byte fields.
static_assert(sizeof(std::size_t) == 8, "snapshot format assumes LP64");

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Little-endian writer over a byte vector: the save side of every state
/// walk. A scalar field (integer, bool, enum) is stored at its in-memory
/// width; pairs and arrays element by element.
class Writer {
 public:
  static constexpr bool kSaving = true;

  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  template <class... Ts>
  void operator()(const Ts&... fields) {
    (put(fields), ...);
  }
  /// Stores a sequence length and returns it.
  std::size_t count(std::size_t n, std::size_t /*min_element_bytes*/) {
    put(std::uint64_t{n});
    return n;
  }
  void str(const std::string& s) {
    put(std::uint64_t{s.size()});
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  template <class A, class B>
  void put(const std::pair<A, B>& p) {
    put(p.first);
    put(p.second);
  }
  template <class T, std::size_t N>
  void put(const std::array<T, N>& a) {
    for (const T& x : a) {
      put(x);
    }
  }
  template <class T>
  void put(const T& v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "walk a struct field by field");
    std::uint64_t bits;
    if constexpr (std::is_enum_v<T>) {
      bits = static_cast<std::uint64_t>(
          static_cast<std::underlying_type_t<T>>(v));
    } else {
      bits = static_cast<std::uint64_t>(v);
    }
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked little-endian reader, the restore side of every state
/// walk (field layout as Writer); underflow throws SnapshotError.
class Reader {
 public:
  static constexpr bool kSaving = false;

  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    (get(fields), ...);
  }
  /// Reads a count that will drive a loop of elements at least
  /// `min_element_bytes` each; bounding it by the remaining payload turns
  /// a corrupt length field into a clean truncation error instead of an
  /// attempted multi-gigabyte allocation.
  std::size_t count(std::size_t /*current*/, std::size_t min_element_bytes) {
    std::uint64_t n = 0;
    get(n);
    if (n > (size_ - pos_) / min_element_bytes) {
      throw SnapshotError("truncated snapshot: element count " +
                          std::to_string(n) + " exceeds remaining payload");
    }
    return static_cast<std::size_t>(n);
  }
  std::string str() {
    std::uint64_t n = 0;
    get(n);
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::uint64_t n) {
    if (n > size_ - pos_) {
      throw SnapshotError("truncated snapshot: read past end of payload");
    }
  }
  template <class A, class B>
  void get(std::pair<A, B>& p) {
    get(p.first);
    get(p.second);
  }
  template <class T, std::size_t N>
  void get(std::array<T, N>& a) {
    for (T& x : a) {
      get(x);
    }
  }
  template <class T>
  void get(T& v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "walk a struct field by field");
    need(sizeof(T));
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    if constexpr (std::is_same_v<T, bool>) {
      v = bits != 0;
    } else {
      v = static_cast<T>(bits);
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

/// Friend of every simulation class holding checkpointable state. Each
/// such struct has one walk below, a template over the I/O direction:
/// with a Writer it saves (and sees the struct const), with a Reader it
/// restores. A field is named once, so save and restore cannot disagree
/// on what is in the image or in what order; the few steps that differ
/// by direction sit inside the walk under `if constexpr`.
class SnapshotAccess {
 public:
  static std::vector<std::uint8_t> save(const SimStepper& st);
  static void restore(const std::vector<std::uint8_t>& data, Simulator& sim,
                      SimStepper& st, SimWorkspace& ws);

 private:
  /// A walked struct: const when saving, mutable when restoring.
  template <class IO, class T>
  using Ref = std::conditional_t<IO::kSaving, const T&, T&>;

  static std::string fingerprint(const Simulator& sim);

  /// A run-sized sequence: its length, then elements [from, end) through
  /// `each`. Restore replaces the contents (and passes `from` = 0).
  template <class IO, class V, class F>
  static void seq(IO& io, V& v, std::size_t min_element_bytes, F&& each,
                  std::size_t from = 0) {
    const std::size_t n = io.count(v.size() - from, min_element_bytes);
    if constexpr (!IO::kSaving) {
      v.clear();
      v.resize(n);
    }
    for (std::size_t i = from; i < v.size(); ++i) {
      each(v[i]);
    }
  }

  /// A sequence the run's configuration sizes: restore requires the saved
  /// length to match the fresh run's, else throws `mismatch`.
  template <class IO, class V, class F>
  static void fixed(IO& io, V& v, std::size_t min_element_bytes,
                    const char* mismatch, F&& each) {
    if (io.count(v.size(), min_element_bytes) != v.size()) {
      throw SnapshotError(mismatch);
    }
    for (auto& x : v) {
      each(x);
    }
  }

  /// The whole payload after the fingerprint: the stepper's loop state,
  /// then the run it drives. Save writes the shards' measurement slices
  /// as one, its latency samples sorted so that nothing depends on the
  /// shard count (the summaries sort them anyway); restore reads it into
  /// slice 0.
  template <class IO>
  static void walk(IO& io, Ref<IO, SimStepper> st) {
    ShardRun merged;
    if constexpr (IO::kSaving) {
      const std::vector<ShardRun>& shards = st.ws_->shard_runs_;
      merged.region_vc_flits.resize(shards.front().region_vc_flits.size());
      merged.vl_channel_flits.resize(shards.front().vl_channel_flits.size());
      for (const ShardRun& sh : shards) {
        merged.merge_measurements(sh);
      }
      std::sort(merged.net_latencies.begin(), merged.net_latencies.end());
      std::sort(merged.total_latencies.begin(), merged.total_latencies.end());
    }
    ShardRun& slice = IO::kSaving ? merged : st.ws_->shard_runs_.front();
    auto& cur = st.cur_;
    io(cur.measure_end, cur.hard_end, cur.now, cur.idle_cycles,
       cur.deadlock, cur.drained, st.done_, cur.counters.created,
       cur.counters.created_measured, cur.counters.dropped_unroutable,
       slice.delivered_measured);
    walk(io, *st.sim_);
    walk(io, *st.ws_, *st.sim_, cur.now, slice);
    if constexpr (!IO::kSaving) {
      if (!io.exhausted()) {
        throw SnapshotError("snapshot holds trailing bytes past its payload");
      }
    }
  }

  /// The per-run streams the algorithm and the traffic generator keep
  /// behind their save/load_stream_state hooks.
  template <class IO>
  static void walk(IO& io, Ref<IO, Simulator> sim) {
    stream(io, *sim.algorithm_, "algorithm");
    stream(io, *sim.traffic_, "traffic");
  }

  template <class IO, class Owner>
  static void stream(IO& io, Owner& owner, const std::string& name) {
    std::vector<std::uint64_t> words;
    if constexpr (IO::kSaving) {
      owner.save_stream_state(words);
    }
    seq(io, words, 8, io);
    if constexpr (!IO::kSaving) {
      // The loaders reject bad words through require(), but
      // restore_snapshot() promises SnapshotError only.
      std::size_t cursor = 0;
      try {
        owner.load_stream_state(words, cursor);
      } catch (const std::invalid_argument& e) {
        throw SnapshotError("snapshot " + name +
                            " stream state rejected: " + e.what());
      }
      if (cursor != words.size()) {
        throw SnapshotError(name + " stream state not fully consumed");
      }
    }
  }

  /// Every workspace plane that carries state across a cycle boundary,
  /// in image order. `now` is the paused cycle.
  template <class IO>
  static void walk(IO& io, Ref<IO, SimWorkspace> ws, Ref<IO, Simulator> sim,
                   Cycle now, ShardRun& slice) {
    walk(io, ws.packets_);
    // Every later plane names packets by their index in this table.
    const std::size_t packets = ws.packets_.size();
    walk(io, ws.net_, packets);
    fixed(io, ws.nis_, 48, "snapshot NI count mismatch",
          [&](auto& ni) { walk(io, ni, *sim.topo_, now, packets); });
    walk(io, ws.rc_units_, packets);
    walk(io, ws.surgeon_, sim);
    events(io, ws, now);
    seq(io, slice.net_latencies, 4, io);
    seq(io, slice.total_latencies, 4, io);
    // The in-progress results counters: flit hops accumulate in the
    // results, the per-flit statistics in the slice.
    io(ws.results_.flit_hops, slice.flits_ejected_in_window);
    fixed(io, slice.region_vc_flits, 8 * kMaxVcsStats,
          "snapshot region count mismatch", io);
    fixed(io, slice.vl_channel_flits, 8, "snapshot VL plane size mismatch",
          io);
  }

  /// The shards' event heaps as one (cycle, NI)-sorted list. The pop order
  /// depends only on the multiset, so restore pushes each event into its
  /// NI's shard heap, and derives the busy words (snapshot.hpp).
  template <class IO>
  static void events(IO& io, Ref<IO, SimWorkspace> ws, Cycle now) {
    std::vector<std::pair<Cycle, std::size_t>> pending;
    if constexpr (IO::kSaving) {
      for (const ShardRun& sh : ws.shard_runs_) {
        pending.insert(pending.end(), sh.events.begin(), sh.events.end());
      }
      std::sort(pending.begin(), pending.end());
    }
    seq(io, pending, 16, io);
    if constexpr (!IO::kSaving) {
      const auto shard_of = [&](std::size_t ni) -> ShardRun& {
        return ws.shard_runs_[static_cast<std::size_t>(
            ws.partition_.shard_of(ws.nis_[ni].node()))];
      };
      for (const auto& [cycle, ni] : pending) {
        if (ni >= ws.nis_.size()) {
          throw SnapshotError("snapshot injection event names NI " +
                              std::to_string(ni) + " of " +
                              std::to_string(ws.nis_.size()));
        }
        not_before<IO>(cycle, now, "injection event");
        auto& heap = shard_of(ni).events;
        heap.emplace_back(cycle, ni);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
      for (std::size_t i = 0; i < ws.nis_.size(); ++i) {
        if (ws.nis_[i].busy()) {
          shard_of(i).busy[i / 64] |= std::uint64_t{1} << (i % 64);
        }
      }
    }
  }

  template <class IO>
  static void walk(IO& io, Ref<IO, PacketTable> packets) {
    // Re-interning the saved routes in saved id order reproduces every
    // RouteId exactly (interning assigns ids densely in first-appearance
    // order), so the hot plane's route references and the surgeon's
    // per-route affected_ plane stay valid verbatim.
    if constexpr (!IO::kSaving) {
      packets.clear();
    }
    const std::size_t routes = io.count(packets.routes_.size(), 20);
    for (std::size_t i = 0; i < routes; ++i) {
      const auto id = static_cast<RouteId>(i);
      PacketRoute rt = IO::kSaving ? packets.routes_.get(id) : PacketRoute{};
      io(rt.src, rt.dst, rt.down_node, rt.up_exit, rt.initial_vcs,
         rt.rc_absorb, rt.rc_unit);
      if constexpr (!IO::kSaving) {
        if (packets.routes_.intern(rt) != id) {
          throw SnapshotError("snapshot route plane holds duplicate routes");
        }
      }
    }
    seq(io, packets.hot_, 8, [&](auto& h) {
      io(h.route, h.size, h.app, h.measured);
      if (h.route < 0 || static_cast<std::size_t>(h.route) >= routes) {
        throw SnapshotError("snapshot packet references missing route");
      }
    });
    // The timestamp plane is parallel to the hot plane: one length.
    if constexpr (!IO::kSaving) {
      packets.times_.resize(packets.hot_.size());
    }
    for (auto& t : packets.times_) {
      io(t.created, t.net_injected, t.ejected);
    }
  }

  template <class IO>
  static void walk(IO& io, Ref<IO, Network> net, std::size_t packets) {
    // A stepper pause is a cycle boundary: every staged outbox must have
    // been committed. An occupied outbox means the caller paused somewhere
    // illegal, and the snapshot would silently drop the staged moves. On
    // restore, start() has pre-staged the RC units' initial output
    // credits, which a normal run commits in its first apply(); the saved
    // credit planes already include that commit, so every outbox is
    // discarded before the saved state takes over.
    for (auto& box : net.outboxes_) {
      staged<IO>(box.arrivals, "arrivals");
      staged<IO>(box.credits, "credits");
      staged<IO>(box.ejections, "ejections");
    }
    for (auto& lane : net.lanes_) {
      staged<IO>(lane.rc_departures, "RC departures");
      staged<IO>(lane.rc_out_credits, "RC credits");
    }

    fixed(io, net.routers_, 100, "snapshot router count mismatch",
          [&](auto& rs) { walk(io, rs, net.num_vcs_, packets); });
    fixed(io, net.channel_faulty_, 1, "snapshot channel count mismatch", io);
    fixed(io, net.vl_next_free_, 8, "snapshot VL channel count mismatch", io);
    // The int credit planes are stored as int64.
    const auto credit = [&](auto& c) {
      std::int64_t wide = c;
      io(wide);
      if constexpr (!IO::kSaving) {
        c = static_cast<int>(wide);
      }
    };
    fixed(io, net.local_credit_, 8, "snapshot credit plane size mismatch",
          credit);
    fixed(io, net.rc_in_credit_, 8, "snapshot RC credit plane size mismatch",
          credit);
    if constexpr (!IO::kSaving) {
      // Each shard's lane is derived (snapshot.hpp): its worklist marks
      // the routers that buffer flits, and its count sums their fill.
      for (std::size_t n = 0; n < net.routers_.size(); ++n) {
        const RouterState& rs = net.routers_[n];
        auto& lane = net.lanes_[static_cast<std::size_t>(
            net.shard_of(static_cast<NodeId>(n)))];
        for (int l = 0; l < kNumLanes; ++l) {
          lane.flits_buffered += static_cast<std::uint64_t>(rs.flits.size(l));
        }
        if (rs.occupancy != 0) {
          lane.active[n / 64] |= std::uint64_t{1} << (n % 64);
        }
      }
    }
  }

  template <class IO, class Box>
  static void staged(Box& box, const char* kind) {
    if constexpr (IO::kSaving) {
      if (!box.empty()) {
        throw SnapshotError(std::string("save_snapshot: staged ") + kind +
                            " pending");
      }
    } else {
      box.clear();
    }
  }

  template <class IO>
  static void walk(IO& io, Ref<IO, RouterState> rs, int num_vcs,
                   std::size_t packets) {
    if constexpr (!IO::kSaving) {
      rs.flits = FlitStore{};
    }
    for (int lane = 0; lane < kNumLanes; ++lane) {
      auto n = static_cast<std::uint8_t>(rs.flits.size(lane));
      io(n);
      if (n > kMaxBufferDepth) {
        throw SnapshotError("snapshot flit lane overflows buffer depth");
      }
      for (int off = 0; off < n; ++off) {
        Flit f = IO::kSaving ? rs.flits.peek(lane, off) : Flit{};
        walk(io, f);
        if constexpr (!IO::kSaving) {
          rs.flits.push(lane, f);
        }
      }
    }
    for (auto& in : rs.in) {
      io(in.route_ready, in.decision.out_port, in.decision.vcs, in.out_vc);
    }
    for (auto& out : rs.out) {
      io(out.owner_port, out.owner_vc, out.credits);
    }
    io(rs.va_ptr, rs.ovc_ptr, rs.sa_ptr, rs.occupancy, rs.owned);
    if constexpr (!IO::kSaving) {
      check_router(rs, num_vcs);
      for (int lane = 0; lane < kNumLanes; ++lane) {
        for (int off = 0; off < rs.flits.size(lane); ++off) {
          packet<IO>(rs.flits.peek(lane, off).packet, packets, "router lane");
        }
      }
    }
  }

  /// The next cycle trusts a router's bookkeeping: it walks the occupancy
  /// bits into lanes, the owned bits into owner fields, and route
  /// decisions and allocated VCs into per-port and per-VC arrays. Restore
  /// admits only what a run itself can hold.
  static void check_router(const RouterState& rs, int num_vcs) {
    if (rs.occupancy != rs.flits.occupied_mask()) {
      throw SnapshotError("snapshot router occupancy disagrees with its "
                          "lane fill counts");
    }
    std::uint64_t configured_lanes = 0;
    for (int port = 0; port < kNumPorts; ++port) {
      configured_lanes |= ((std::uint64_t{1} << num_vcs) - 1)
                          << FlitStore::lane_of(port, 0);
    }
    if ((rs.occupancy & ~configured_lanes) != 0) {
      throw SnapshotError(
          "snapshot router buffers flits on an unconfigured VC");
    }
    for (int lane = 0; lane < kNumLanes; ++lane) {
      const InputVcState& in = rs.in[static_cast<std::size_t>(lane)];
      if (port_index(in.decision.out_port) >= kNumPorts) {
        throw SnapshotError(
            "snapshot route decision names port " +
            std::to_string(port_index(in.decision.out_port)));
      }
      if (in.out_vc < -1 || in.out_vc >= num_vcs) {
        throw SnapshotError("snapshot input VC holds output VC " +
                            std::to_string(in.out_vc) + " of " +
                            std::to_string(num_vcs));
      }
      const OutputVc& out = rs.out[static_cast<std::size_t>(lane)];
      const bool owned = ((rs.owned >> lane) & 1) != 0;
      if (owned != (out.owner_port >= 0)) {
        throw SnapshotError(
            "snapshot owned-output bit disagrees with its owner");
      }
      const bool in_range =
          owned ? out.owner_port < kNumPorts && out.owner_vc >= 0 &&
                      out.owner_vc < num_vcs && lane % kMaxVcs < num_vcs
                : out.owner_port == -1 && out.owner_vc == -1;
      if (!in_range) {
        throw SnapshotError("snapshot output VC owner out of range");
      }
    }
  }

  template <class IO>
  static void walk(IO& io, Ref<IO, Flit> f) {
    io(f.packet, f.seq, f.kind);
  }

  /// An NI paused before cycle `now`. Packet creation indexes the
  /// topology by every destination its injection event and reply FIFO
  /// name: restore admits only endpoints, and nothing already overdue.
  template <class IO>
  static void walk(IO& io, Ref<IO, NetworkInterface> ni, const Topology& topo,
                   Cycle now, std::size_t packets) {
    NodeId node = ni.node_;
    io(node);
    if (node != ni.node_) {
      throw SnapshotError("snapshot NI endpoint mismatch");
    }
    std::array<std::uint64_t, 4> rng = ni.rng_.state();
    // Counter-mode route stream: its key and mode were rebuilt by
    // start() (pure functions of the fingerprint-checked knobs), so
    // only the draw count is run state - 0 in serial mode.
    std::uint64_t draws = ni.route_rng_.counter();
    io(rng, draws);
    if constexpr (!IO::kSaving) {
      ni.rng_.set_state(rng);
      ni.route_rng_.set_counter(draws);
      // Only the unconsumed FIFO slices are observable; they restore at
      // head 0 (the cursor positions are not behavior-affecting).
      ni.queue_head_ = 0;
      ni.replies_head_ = 0;
    }
    seq(io, ni.queue_, 4, [&](auto& id) {
      io(id);
      packet<IO>(id, packets, "NI queue");
    }, ni.queue_head_);
    io(ni.active_, ni.active_size_, ni.active_initial_vcs_, ni.next_seq_,
       ni.vc_, ni.perm_requested_, ni.vc_rr_, ni.injection_at_);
    packet<IO>(ni.active_, packets, "NI active packet", true);
    seq(io, ni.scratch_, 13, [&](auto& req) {
      io(req.dst, req.app, req.reply_at);
      endpoint<IO>(topo, req.dst, "pre-drawn request");
    });
    seq(io, ni.replies_, 13, [&](auto& reply) {
      io(reply.due, reply.requester, reply.app);
      endpoint<IO>(topo, reply.requester, "queued reply");
      not_before<IO>(reply.due, now, "queued reply due");
    }, ni.replies_head_);
    not_before<IO>(ni.injection_at_, now, "NI injection event");
  }

  /// Restore-side check that `n` is an endpoint node of `topo`.
  template <class IO>
  static void endpoint(const Topology& topo, NodeId n, const char* what) {
    if (!IO::kSaving && topo.endpoint_index(n) < 0) {
      throw SnapshotError(std::string("snapshot ") + what + " names node " +
                          std::to_string(n) + ", not an endpoint");
    }
  }

  /// Restore-side check that `id` indexes the packet table of `packets`
  /// entries, as the next cycle does unchecked. -1 passes only where
  /// `none_ok`: in a field where it means "no packet".
  template <class IO>
  static void packet(PacketId id, std::size_t packets, const char* what,
                     bool none_ok = false) {
    if (!IO::kSaving && !(none_ok && id == -1) &&
        (id < 0 || static_cast<std::size_t>(id) >= packets)) {
      throw SnapshotError(std::string("snapshot ") + what + " names packet " +
                          std::to_string(id) + " of " +
                          std::to_string(packets));
    }
  }

  /// Restore-side check that cycle `c` is not before the paused cycle.
  template <class IO>
  static void not_before(Cycle c, Cycle now, const char* what) {
    if (!IO::kSaving && c < now) {
      throw SnapshotError(std::string("snapshot ") + what + " at cycle " +
                          std::to_string(c) + " precedes the paused cycle " +
                          std::to_string(now));
    }
  }

  template <class IO>
  static void walk(IO& io, Ref<IO, RcUnitManager> rc, std::size_t packets) {
    fixed(io, rc.units_, 25, "snapshot RC unit count mismatch",
          [&](auto& unit) {
            seq(io, unit.queue, 16, [&](auto& req) {
              io(req.requester, req.packet, req.arrives);
              packet<IO>(req.packet, packets, "RC unit request");
            });
            io(unit.reserved, unit.granted_to, unit.granted_packet,
               unit.grant_arrives);
            packet<IO>(unit.granted_packet, packets, "RC unit grant", true);
            seq(io, unit.buffer, 7, [&](auto& f) {
              walk(io, f);
              packet<IO>(f.packet, packets, "RC unit buffer");
            });
            io(unit.absorbing_done, unit.reinject_vc);
          });
    io(rc.progress_, rc.flits_held_, rc.busy_units_);
  }

  template <class IO>
  static void walk(IO& io, Ref<IO, FaultSurgeon> s, Ref<IO, Simulator> sim) {
    io(s.cursor_, s.faults_.words_, s.lost_, s.lost_measured_,
       s.first_fail_);
    seq(io, s.intervals_, 16, io);
    seq(io, s.affected_, 1, io);
    if constexpr (!IO::kSaving) {
      const std::vector<VlChannelId> faulty = s.faults_.channels();
      const int channels = sim.topo_->num_vl_channels();
      if (!faulty.empty() && faulty.back() >= channels) {
        throw SnapshotError("snapshot fault set names VL channel " +
                            std::to_string(faulty.back()) + " of " +
                            std::to_string(channels));
      }
      // Timeline events already applied before the pause changed the
      // fault set; rebuild the algorithm's tables for it (set_faults()
      // contract: identical state to construction under this set, RNG
      // untouched - the stream state restored earlier completes the
      // picture). The network-side channel marks were restored verbatim
      // with the planes.
      if (s.faults_ != sim.faults_) {
        sim.algorithm_->set_faults(s.faults_);
      }
    }
  }
};

std::string SnapshotAccess::fingerprint(const Simulator& sim) {
  std::ostringstream out;
  const SimKnobs& k = sim.knobs_;
  const Topology& t = *sim.topo_;
  out << "topo=" << t.num_nodes() << "n/" << t.num_channels() << "c/"
      << t.num_vl_channels() << "vl/" << t.num_chiplets() << "chip/"
      << t.endpoints().size() << "ep"
      << " knobs=" << k.num_vcs << "v/" << k.buffer_depth << "b/"
      << k.packet_size << "p/" << k.vl_serialization << "s/w" << k.warmup
      << "/m" << k.measure << "/d" << k.drain_max << "/wd"
      << k.watchdog_cycles << "/seed" << k.seed << "/core"
      << static_cast<int>(k.core) << "/rng" << static_cast<int>(k.rng_mode)
      << " alg=" << sim.algorithm_->name();
  if (const auto* d = dynamic_cast<const DeftRouting*>(sim.algorithm_)) {
    out << "/" << vl_strategy_name(d->strategy());
  }
  out << "/" << sim.algorithm_->num_vcs() << " traffic="
      << sim.traffic_->name();
  if (const auto* a = dynamic_cast<const AppTrafficGenerator*>(sim.traffic_)) {
    for (const AppAssignment& app : a->apps()) {
      out << "/" << app.profile.code << "x" << app.cores.size();
    }
  }
  out << "@" << std::setprecision(std::numeric_limits<double>::max_digits10)
      << sim.traffic_->rate() << " faults=" << sim.faults_.to_string()
      << " policy=" << static_cast<int>(sim.policy_) << " timeline=[";
  if (sim.timeline_ != nullptr) {
    for (const FaultEvent& ev : sim.timeline_->events()) {
      out << "(" << ev.cycle << "," << ev.channel << ","
          << static_cast<int>(ev.kind) << ")";
    }
  }
  out << "]";
  // shards is an execution-shape knob with bit-identical results by
  // contract, so it stays out of the fingerprint: an image restores at
  // any shard count.
  return out.str();
}

std::vector<std::uint8_t> SnapshotAccess::save(const SimStepper& st) {
  if (st.sim_ == nullptr || st.ws_ == nullptr) {
    throw SnapshotError("save_snapshot: stepper not started");
  }
  if (st.finished_) {
    throw SnapshotError("save_snapshot: run already finished");
  }
  std::vector<std::uint8_t> payload;
  Writer w(payload);
  w.str(fingerprint(*st.sim_));
  walk(w, st);

  // Built from kMagic rather than inserted into: GCC 12 reports a false
  // -Wstringop-overflow on the inlined insert.
  std::vector<std::uint8_t> out(kMagic, kMagic + 8);
  out.reserve(kHeaderBytes + payload.size());
  Writer frame(out);
  frame(kSnapshotVersion, std::uint64_t{payload.size()},
        fnv1a(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void SnapshotAccess::restore(const std::vector<std::uint8_t>& data,
                             Simulator& sim, SimStepper& st,
                             SimWorkspace& ws) {
  if (data.size() < kHeaderBytes) {
    throw SnapshotError("truncated snapshot: " + std::to_string(data.size()) +
                        " bytes is smaller than the header");
  }
  if (std::memcmp(data.data(), kMagic, 8) != 0) {
    throw SnapshotError("not a DeFT snapshot (bad magic)");
  }
  std::uint32_t version = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
  Reader(data.data() + 8, kHeaderBytes - 8)(version, payload_len, checksum);
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  if (payload_len != data.size() - kHeaderBytes) {
    throw SnapshotError("truncated snapshot: header promises " +
                        std::to_string(payload_len) + " payload bytes, " +
                        std::to_string(data.size() - kHeaderBytes) +
                        " present");
  }
  const std::uint8_t* payload = data.data() + kHeaderBytes;
  if (fnv1a(payload, payload_len) != checksum) {
    throw SnapshotError("snapshot checksum mismatch (corrupt image)");
  }

  Reader r(payload, payload_len);
  const std::string saved_fp = r.str();
  const std::string expected_fp = fingerprint(sim);
  if (saved_fp != expected_fp) {
    throw SnapshotError(
        "snapshot configuration mismatch:\n  snapshot: " + saved_fp +
        "\n  simulator: " + expected_fp);
  }

  // Run the normal prologue (consumes the run permit, resets every
  // workspace plane), then overwrite with the saved state.
  st.start(sim, ws);
  walk(r, st);
}

std::vector<std::uint8_t> save_snapshot(const SimStepper& stepper) {
  return SnapshotAccess::save(stepper);
}

void restore_snapshot(const std::vector<std::uint8_t>& data, Simulator& sim,
                      SimStepper& stepper, SimWorkspace& ws) {
  SnapshotAccess::restore(data, sim, stepper, ws);
}

void write_snapshot_file(const std::filesystem::path& path,
                         const std::vector<std::uint8_t>& data) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw SnapshotError("cannot create " + tmp.string() + ": " +
                        std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      throw SnapshotError("cannot write " + tmp.string() + ": " + err);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    throw SnapshotError("cannot fsync " + tmp.string() + ": " + err);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    throw SnapshotError("cannot rename " + tmp.string() + " to " +
                        path.string() + ": " + err);
  }
  // Durability of the rename itself: fsync the containing directory.
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::vector<std::uint8_t> read_snapshot_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("cannot read snapshot " + path.string());
  }
  std::vector<std::uint8_t> data;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    throw SnapshotError("cannot size snapshot " + path.string());
  }
  data.resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!in) {
    throw SnapshotError("cannot read snapshot " + path.string());
  }
  return data;
}

}  // namespace deft
