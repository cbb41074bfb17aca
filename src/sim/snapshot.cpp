#include "sim/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace deft {
namespace {

constexpr char kMagic[8] = {'D', 'E', 'F', 'T', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;  // magic, version, len, sum

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Little-endian primitive writer over a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { raw(v, 2); }
  void u32(std::uint32_t v) { raw(v, 4); }
  void u64(std::uint64_t v) { raw(v, 8); }
  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  void raw(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked little-endian reader; underflow throws SnapshotError.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(raw(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(raw(4)); }
  std::uint64_t u64() { return raw(8); }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u8() != 0; }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Reads a count that will drive a loop of elements at least
  /// `min_element_bytes` each; bounding it by the remaining payload turns
  /// a corrupt length field into a clean truncation error instead of an
  /// attempted multi-gigabyte allocation.
  std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (min_element_bytes > 0 &&
        n > (size_ - pos_) / min_element_bytes) {
      throw SnapshotError("truncated snapshot: element count " +
                          std::to_string(n) + " exceeds remaining payload");
    }
    return static_cast<std::size_t>(n);
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::uint64_t n) {
    if (n > size_ - pos_) {
      throw SnapshotError("truncated snapshot: read past end of payload");
    }
  }
  std::uint64_t raw(int bytes) {
    need(static_cast<std::uint64_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_u64_vec(Writer& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const std::uint64_t x : v) {
    w.u64(x);
  }
}

void read_u64_vec(Reader& r, std::vector<std::uint64_t>& v) {
  v.resize(r.count(8));
  for (std::uint64_t& x : v) {
    x = r.u64();
  }
}

void write_flit(Writer& w, const Flit& f) {
  w.i32(f.packet);
  w.u16(f.seq);
  w.u8(f.kind);
}

Flit read_flit(Reader& r) {
  Flit f;
  f.packet = r.i32();
  f.seq = r.u16();
  f.kind = r.u8();
  return f;
}

VlFaultSet faults_from_bits(std::uint64_t bits) {
  VlFaultSet set;
  for (int b = 0; b < 64; ++b) {
    if ((bits >> b) & 1) {
      set.set_faulty(b);
    }
  }
  return set;
}

}  // namespace

/// Friend of every simulation class holding checkpointable state; the
/// whole save/restore implementation lives in its static members.
class SnapshotAccess {
 public:
  static std::vector<std::uint8_t> save(const SimStepper& st);
  static void restore(const std::vector<std::uint8_t>& data, Simulator& sim,
                      SimStepper& st, SimWorkspace& ws);

 private:
  static std::string fingerprint(const Simulator& sim);

  static void save_stepper(Writer& w, const SimStepper& st);
  static void restore_stepper(Reader& r, SimStepper& st);
  static void save_streams(Writer& w, const Simulator& sim);
  static void restore_streams(Reader& r, Simulator& sim);
  static void save_packets(Writer& w, const PacketTable& packets);
  static void restore_packets(Reader& r, PacketTable& packets);
  static void save_network(Writer& w, const Network& net);
  static void restore_network(Reader& r, Network& net);
  static void save_nis(Writer& w, const std::vector<NetworkInterface>& nis);
  static void restore_nis(Reader& r, std::vector<NetworkInterface>& nis);
  static void save_rc(Writer& w, const RcUnitManager& rc);
  static void restore_rc(Reader& r, RcUnitManager& rc);
  static void save_surgeon(Writer& w, const FaultSurgeon& s);
  static void restore_surgeon(Reader& r, FaultSurgeon& s, Simulator& sim);
  static void save_worklists(Writer& w, const SimWorkspace& ws);
  static void restore_worklists(Reader& r, SimWorkspace& ws);
  static void save_results(Writer& w, const SimResults& res);
  static void restore_results(Reader& r, SimResults& res);
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
      << " alg=" << sim.algorithm_->name() << "/"
      << sim.algorithm_->num_vcs() << " traffic=" << sim.traffic_->name()
      << " faults=0x" << std::hex << sim.faults_.bits() << std::dec
      << " policy=" << static_cast<int>(sim.policy_) << " timeline=[";
  if (sim.timeline_ != nullptr) {
    for (const FaultEvent& ev : sim.timeline_->events()) {
      out << "(" << ev.cycle << "," << ev.channel << ","
          << static_cast<int>(ev.kind) << ")";
    }
  }
  out << "]";
  // shards is an execution-shape knob with bit-identical results by
  // contract, so it stays out of the fingerprint: a snapshot of a sharded
  // configuration restores onto the serial stepper.
  return out.str();
}

void SnapshotAccess::save_stepper(Writer& w, const SimStepper& st) {
  w.i64(st.measure_end_);
  w.i64(st.hard_end_);
  w.i64(st.now_);
  w.i64(st.idle_cycles_);
  w.b(st.lookahead_);
  w.b(st.primed_);
  w.b(st.deadlock_);
  w.b(st.drained_);
  w.b(st.done_);
  w.u64(st.counters_.created);
  w.u64(st.counters_.created_measured);
  w.u64(st.counters_.dropped_unroutable);
  w.u64(st.delivered_measured_);
}

void SnapshotAccess::restore_stepper(Reader& r, SimStepper& st) {
  st.measure_end_ = r.i64();
  st.hard_end_ = r.i64();
  st.now_ = r.i64();
  st.idle_cycles_ = r.i64();
  st.lookahead_ = r.b();
  st.primed_ = r.b();
  st.deadlock_ = r.b();
  st.drained_ = r.b();
  st.done_ = r.b();
  st.counters_.created = r.u64();
  st.counters_.created_measured = r.u64();
  st.counters_.dropped_unroutable = r.u64();
  st.delivered_measured_ = r.u64();
}

void SnapshotAccess::save_streams(Writer& w, const Simulator& sim) {
  std::vector<std::uint64_t> words;
  sim.algorithm_->save_stream_state(words);
  write_u64_vec(w, words);
  words.clear();
  sim.traffic_->save_stream_state(words);
  write_u64_vec(w, words);
}

void SnapshotAccess::restore_streams(Reader& r, Simulator& sim) {
  std::vector<std::uint64_t> words;
  std::size_t cursor = 0;
  read_u64_vec(r, words);
  sim.algorithm_->load_stream_state(words, cursor);
  if (cursor != words.size()) {
    throw SnapshotError("algorithm stream state not fully consumed");
  }
  read_u64_vec(r, words);
  cursor = 0;
  sim.traffic_->load_stream_state(words, cursor);
  if (cursor != words.size()) {
    throw SnapshotError("traffic stream state not fully consumed");
  }
}

void SnapshotAccess::save_packets(Writer& w, const PacketTable& packets) {
  const RouteStore& store = packets.routes_;
  w.u64(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const PacketRoute& rt = store.get(static_cast<RouteId>(i));
    w.i32(rt.src);
    w.i32(rt.dst);
    w.i32(rt.down_node);
    w.i32(rt.up_exit);
    w.u8(rt.initial_vcs);
    w.b(rt.rc_absorb);
    w.i32(rt.rc_unit);
  }
  w.u64(packets.hot_.size());
  for (const PacketHot& h : packets.hot_) {
    w.i32(h.route);
    w.u16(h.size);
    w.u8(h.app);
    w.b(h.measured);
  }
  for (const PacketTimes& t : packets.times_) {
    w.i64(t.created);
    w.i64(t.net_injected);
    w.i64(t.ejected);
  }
}

void SnapshotAccess::restore_packets(Reader& r, PacketTable& packets) {
  packets.clear();
  // Re-interning the saved routes in saved id order reproduces every
  // RouteId exactly (interning assigns ids densely in first-appearance
  // order), so the hot plane's route references and the surgeon's
  // per-route affected_ plane stay valid verbatim.
  const std::size_t num_routes = r.count(20);
  for (std::size_t i = 0; i < num_routes; ++i) {
    PacketRoute rt;
    rt.src = r.i32();
    rt.dst = r.i32();
    rt.down_node = r.i32();
    rt.up_exit = r.i32();
    rt.initial_vcs = r.u8();
    rt.rc_absorb = r.b();
    rt.rc_unit = r.i32();
    if (packets.routes_.intern(rt) != static_cast<RouteId>(i)) {
      throw SnapshotError("snapshot route plane holds duplicate routes");
    }
  }
  const std::size_t num_packets = r.count(8);
  packets.hot_.resize(num_packets);
  for (PacketHot& h : packets.hot_) {
    h.route = r.i32();
    h.size = r.u16();
    h.app = r.u8();
    h.measured = r.b();
    if (h.route < 0 || static_cast<std::size_t>(h.route) >= num_routes) {
      throw SnapshotError("snapshot packet references missing route");
    }
  }
  packets.times_.resize(num_packets);
  for (PacketTimes& t : packets.times_) {
    t.created = r.i64();
    t.net_injected = r.i64();
    t.ejected = r.i64();
  }
}

void SnapshotAccess::save_network(Writer& w, const Network& net) {
  if (net.num_shards_ != 1 || net.lanes_.size() != 1) {
    throw SnapshotError("save_snapshot: stepped runs are serial");
  }
  // A stepper pause is a cycle boundary: every staged outbox must have
  // been committed. An occupied outbox means the caller paused somewhere
  // illegal, and the snapshot would silently drop the staged moves.
  for (const auto& box : net.staged_arrivals_) {
    if (!box.empty()) {
      throw SnapshotError("save_snapshot: staged arrivals pending");
    }
  }
  for (const auto& box : net.staged_credits_) {
    if (!box.empty()) {
      throw SnapshotError("save_snapshot: staged credits pending");
    }
  }
  for (const auto& box : net.staged_ejections_) {
    if (!box.empty()) {
      throw SnapshotError("save_snapshot: staged ejections pending");
    }
  }
  for (const auto& box : net.rc_departures_) {
    if (!box.empty()) {
      throw SnapshotError("save_snapshot: staged RC departures pending");
    }
  }
  for (const auto& box : net.staged_rc_out_credits_) {
    if (!box.empty()) {
      throw SnapshotError("save_snapshot: staged RC credits pending");
    }
  }

  w.u64(net.routers_.size());
  for (const RouterState& rs : net.routers_) {
    for (int lane = 0; lane < kNumLanes; ++lane) {
      const int n = rs.flits.size(lane);
      w.u8(static_cast<std::uint8_t>(n));
      for (int off = 0; off < n; ++off) {
        write_flit(w, rs.flits.peek(lane, off));
      }
    }
    for (const InputVcState& in : rs.in) {
      w.b(in.route_ready);
      w.u8(static_cast<std::uint8_t>(port_index(in.decision.out_port)));
      w.u8(in.decision.vcs);
      w.i8(in.out_vc);
    }
    for (const OutputVc& out : rs.out) {
      w.i8(out.owner_port);
      w.i8(out.owner_vc);
      w.i16(out.credits);
    }
    for (int p = 0; p < kNumPorts; ++p) {
      w.u8(rs.va_ptr[static_cast<std::size_t>(p)]);
    }
    for (int p = 0; p < kNumPorts; ++p) {
      w.u8(rs.ovc_ptr[static_cast<std::size_t>(p)]);
    }
    for (int p = 0; p < kNumPorts; ++p) {
      w.u8(rs.sa_ptr[static_cast<std::size_t>(p)]);
    }
    w.u64(rs.occupancy);
    w.u32(rs.owned);
  }
  w.u64(net.channel_faulty_.size());
  for (const char c : net.channel_faulty_) {
    w.u8(static_cast<std::uint8_t>(c));
  }
  w.u64(net.vl_next_free_.size());
  for (const Cycle c : net.vl_next_free_) {
    w.i64(c);
  }
  w.u64(net.local_credit_.size());
  for (const int c : net.local_credit_) {
    w.i64(c);
  }
  w.u64(net.rc_in_credit_.size());
  for (const int c : net.rc_in_credit_) {
    w.i64(c);
  }
  const auto& lane = net.lanes_[0];
  write_u64_vec(w, lane.active);
  w.u64(lane.flits_buffered);
  w.u64(lane.moves);
}

void SnapshotAccess::restore_network(Reader& r, Network& net) {
  // prepare() pre-stages the RC units' initial output credits, which a
  // normal run commits in its first apply(). The saved credit planes
  // already include that commit, so the fresh staging is discarded along
  // with every other outbox before the saved state takes over.
  for (auto& box : net.staged_arrivals_) {
    box.clear();
  }
  for (auto& box : net.staged_credits_) {
    box.clear();
  }
  for (auto& box : net.staged_ejections_) {
    box.clear();
  }
  for (auto& box : net.rc_departures_) {
    box.clear();
  }
  for (auto& box : net.staged_rc_out_credits_) {
    box.clear();
  }
  if (r.count(100) != net.routers_.size()) {
    throw SnapshotError("snapshot router count mismatch");
  }
  for (RouterState& rs : net.routers_) {
    rs.flits = FlitStore{};
    for (int lane = 0; lane < kNumLanes; ++lane) {
      const int n = r.u8();
      if (n > kMaxBufferDepth) {
        throw SnapshotError("snapshot flit lane overflows buffer depth");
      }
      for (int off = 0; off < n; ++off) {
        rs.flits.push(lane, read_flit(r));
      }
    }
    for (InputVcState& in : rs.in) {
      in.route_ready = r.b();
      in.decision.out_port = static_cast<Port>(r.u8());
      in.decision.vcs = r.u8();
      in.out_vc = r.i8();
    }
    for (OutputVc& out : rs.out) {
      out.owner_port = r.i8();
      out.owner_vc = r.i8();
      out.credits = r.i16();
    }
    for (int p = 0; p < kNumPorts; ++p) {
      rs.va_ptr[static_cast<std::size_t>(p)] = r.u8();
    }
    for (int p = 0; p < kNumPorts; ++p) {
      rs.ovc_ptr[static_cast<std::size_t>(p)] = r.u8();
    }
    for (int p = 0; p < kNumPorts; ++p) {
      rs.sa_ptr[static_cast<std::size_t>(p)] = r.u8();
    }
    rs.occupancy = r.u64();
    rs.owned = r.u32();
  }
  if (r.count(1) != net.channel_faulty_.size()) {
    throw SnapshotError("snapshot channel count mismatch");
  }
  for (char& c : net.channel_faulty_) {
    c = static_cast<char>(r.u8());
  }
  if (r.count(8) != net.vl_next_free_.size()) {
    throw SnapshotError("snapshot VL channel count mismatch");
  }
  for (Cycle& c : net.vl_next_free_) {
    c = r.i64();
  }
  if (r.count(8) != net.local_credit_.size()) {
    throw SnapshotError("snapshot credit plane size mismatch");
  }
  for (int& c : net.local_credit_) {
    c = static_cast<int>(r.i64());
  }
  if (r.count(8) != net.rc_in_credit_.size()) {
    throw SnapshotError("snapshot RC credit plane size mismatch");
  }
  for (int& c : net.rc_in_credit_) {
    c = static_cast<int>(r.i64());
  }
  auto& lane = net.lanes_[0];
  read_u64_vec(r, lane.active);
  lane.flits_buffered = r.u64();
  lane.moves = r.u64();
}

void SnapshotAccess::save_nis(Writer& w,
                              const std::vector<NetworkInterface>& nis) {
  w.u64(nis.size());
  for (const NetworkInterface& ni : nis) {
    w.i32(ni.node_);
    for (const std::uint64_t word : ni.rng_.state()) {
      w.u64(word);
    }
    // Counter-mode route stream: the key is a pure function of
    // (seed, node) and is rebuilt by prepare(); only the draw count is
    // run state. Always written (0 in serial mode) - format v2.
    w.u64(ni.route_rng_.counter());
    // Only the unconsumed queue slice is observable; it restores at
    // head 0 (the cursor position is not behavior-affecting).
    w.u64(ni.queue_.size() - ni.queue_head_);
    for (std::size_t i = ni.queue_head_; i < ni.queue_.size(); ++i) {
      w.i32(ni.queue_[i]);
    }
    w.i32(ni.active_);
    w.u16(ni.active_size_);
    w.u8(ni.active_initial_vcs_);
    w.u16(ni.next_seq_);
    w.i32(ni.vc_);
    w.b(ni.perm_requested_);
    w.u8(ni.vc_rr_);
    w.u64(ni.scratch_.size());
    for (const PacketRequest& req : ni.scratch_) {
      w.i32(req.dst);
      w.u8(req.app);
    }
  }
}

void SnapshotAccess::restore_nis(Reader& r,
                                 std::vector<NetworkInterface>& nis) {
  if (r.count(48) != nis.size()) {
    throw SnapshotError("snapshot NI count mismatch");
  }
  for (NetworkInterface& ni : nis) {
    if (r.i32() != ni.node_) {
      throw SnapshotError("snapshot NI endpoint mismatch");
    }
    std::array<std::uint64_t, 4> state;
    for (std::uint64_t& word : state) {
      word = r.u64();
    }
    ni.rng_.set_state(state);
    // Key and mode were already rebuilt by prepare() (both are pure
    // functions of the fingerprint-checked knobs); resume mid-sequence.
    ni.route_rng_.set_counter(r.u64());
    ni.queue_.clear();
    ni.queue_head_ = 0;
    const std::size_t depth = r.count(4);
    for (std::size_t i = 0; i < depth; ++i) {
      ni.queue_.push_back(r.i32());
    }
    ni.active_ = r.i32();
    ni.active_size_ = r.u16();
    ni.active_initial_vcs_ = r.u8();
    ni.next_seq_ = r.u16();
    ni.vc_ = r.i32();
    ni.perm_requested_ = r.b();
    ni.vc_rr_ = r.u8();
    ni.scratch_.clear();
    const std::size_t pending = r.count(5);
    for (std::size_t i = 0; i < pending; ++i) {
      PacketRequest req;
      req.dst = r.i32();
      req.app = r.u8();
      ni.scratch_.push_back(req);
    }
  }
}

void SnapshotAccess::save_rc(Writer& w, const RcUnitManager& rc) {
  w.u64(rc.units_.size());
  for (const auto& unit : rc.units_) {
    w.u64(unit.queue.size());
    for (const auto& req : unit.queue) {
      w.i32(req.requester);
      w.i32(req.packet);
      w.i64(req.arrives);
    }
    w.b(unit.reserved);
    w.i32(unit.granted_to);
    w.i32(unit.granted_packet);
    w.i64(unit.grant_arrives);
    w.u64(unit.buffer.size());
    for (const Flit& f : unit.buffer) {
      write_flit(w, f);
    }
    w.b(unit.absorbing_done);
    w.i32(unit.reinject_vc);
  }
  w.u64(rc.progress_);
  w.u64(rc.flits_held_);
  w.i32(rc.busy_units_);
}

void SnapshotAccess::restore_rc(Reader& r, RcUnitManager& rc) {
  if (r.count(25) != rc.units_.size()) {
    throw SnapshotError("snapshot RC unit count mismatch");
  }
  for (auto& unit : rc.units_) {
    unit.queue.clear();
    const std::size_t queued = r.count(16);
    for (std::size_t i = 0; i < queued; ++i) {
      RcUnitManager::Request req;
      req.requester = r.i32();
      req.packet = r.i32();
      req.arrives = r.i64();
      unit.queue.push_back(req);
    }
    unit.reserved = r.b();
    unit.granted_to = r.i32();
    unit.granted_packet = r.i32();
    unit.grant_arrives = r.i64();
    unit.buffer.clear();
    const std::size_t held = r.count(7);
    for (std::size_t i = 0; i < held; ++i) {
      unit.buffer.push_back(read_flit(r));
    }
    unit.absorbing_done = r.b();
    unit.reinject_vc = r.i32();
  }
  rc.progress_ = r.u64();
  rc.flits_held_ = r.u64();
  rc.busy_units_ = r.i32();
}

void SnapshotAccess::save_surgeon(Writer& w, const FaultSurgeon& s) {
  // order_ and ni_of_node_ are rebuilt deterministically by reset();
  // the per-event scratch (doomed_ etc.) is reassigned at each event
  // application. Only the cursor, the current fault set and the
  // fault-window metrics carry across a pause.
  w.u64(s.cursor_);
  w.u64(s.faults_.bits());
  w.u64(s.lost_);
  w.u64(s.lost_measured_);
  w.i64(s.first_fail_);
  w.u64(s.intervals_.size());
  for (const auto& [start, end] : s.intervals_) {
    w.i64(start);
    w.i64(end);
  }
  w.u64(s.affected_.size());
  for (const char c : s.affected_) {
    w.u8(static_cast<std::uint8_t>(c));
  }
}

void SnapshotAccess::restore_surgeon(Reader& r, FaultSurgeon& s,
                                     Simulator& sim) {
  s.cursor_ = r.u64();
  const std::uint64_t fault_bits = r.u64();
  s.faults_ = faults_from_bits(fault_bits);
  s.lost_ = r.u64();
  s.lost_measured_ = r.u64();
  s.first_fail_ = r.i64();
  s.intervals_.clear();
  const std::size_t intervals = r.count(16);
  for (std::size_t i = 0; i < intervals; ++i) {
    const Cycle start = r.i64();
    const Cycle end = r.i64();
    s.intervals_.push_back({start, end});
  }
  s.affected_.resize(r.count(1));
  for (char& c : s.affected_) {
    c = static_cast<char>(r.u8());
  }
  // Timeline events already applied before the pause changed the fault
  // set; rebuild the algorithm's tables for it (set_faults() contract:
  // identical state to construction under this set, RNG untouched - the
  // stream state restored afterwards completes the picture). The
  // network-side channel marks were restored verbatim with the planes.
  if (fault_bits != sim.faults_.bits()) {
    sim.algorithm_->set_faults(s.faults_);
  }
}

void SnapshotAccess::save_worklists(Writer& w, const SimWorkspace& ws) {
  write_u64_vec(w, ws.busy_);
  write_u64_vec(w, ws.wake_);
  // The scheduled-injection heap: the vector layout of a binary heap is
  // deterministic, so it round-trips verbatim.
  w.u64(ws.events_.size());
  for (const auto& [cycle, ni] : ws.events_) {
    w.i64(cycle);
    w.u64(ni);
  }
  w.u64(ws.net_latencies_.size());
  for (const std::uint32_t s : ws.net_latencies_) {
    w.u32(s);
  }
  w.u64(ws.total_latencies_.size());
  for (const std::uint32_t s : ws.total_latencies_) {
    w.u32(s);
  }
}

void SnapshotAccess::restore_worklists(Reader& r, SimWorkspace& ws) {
  read_u64_vec(r, ws.busy_);
  read_u64_vec(r, ws.wake_);
  ws.events_.clear();
  const std::size_t events = r.count(16);
  for (std::size_t i = 0; i < events; ++i) {
    const Cycle cycle = r.i64();
    const std::size_t ni = static_cast<std::size_t>(r.u64());
    ws.events_.push_back({cycle, ni});
  }
  ws.net_latencies_.resize(r.count(4));
  for (std::uint32_t& s : ws.net_latencies_) {
    s = r.u32();
  }
  ws.total_latencies_.resize(r.count(4));
  for (std::uint32_t& s : ws.total_latencies_) {
    s = r.u32();
  }
}

void SnapshotAccess::save_results(Writer& w, const SimResults& res) {
  // Only the fields the phase loops mutate mid-run; everything else is
  // filled by finish()/finalize() after the run completes.
  w.u64(res.flit_hops);
  w.u64(res.flits_ejected_in_window);
  w.u64(res.region_vc_flits.size());
  for (const auto& per_vc : res.region_vc_flits) {
    for (const std::uint64_t f : per_vc) {
      w.u64(f);
    }
  }
  w.u64(res.vl_channel_flits.size());
  for (const std::uint64_t f : res.vl_channel_flits) {
    w.u64(f);
  }
}

void SnapshotAccess::restore_results(Reader& r, SimResults& res) {
  res.flit_hops = r.u64();
  res.flits_ejected_in_window = r.u64();
  if (r.count(8 * kMaxVcsStats) != res.region_vc_flits.size()) {
    throw SnapshotError("snapshot region count mismatch");
  }
  for (auto& per_vc : res.region_vc_flits) {
    for (std::uint64_t& f : per_vc) {
      f = r.u64();
    }
  }
  if (r.count(8) != res.vl_channel_flits.size()) {
    throw SnapshotError("snapshot VL plane size mismatch");
  }
  for (std::uint64_t& f : res.vl_channel_flits) {
    f = r.u64();
  }
}

std::vector<std::uint8_t> SnapshotAccess::save(const SimStepper& st) {
  if (st.sim_ == nullptr || st.ws_ == nullptr) {
    throw SnapshotError("save_snapshot: stepper not started");
  }
  if (st.finished_) {
    throw SnapshotError("save_snapshot: run already finished");
  }
  const Simulator& sim = *st.sim_;
  const SimWorkspace& ws = *st.ws_;

  std::vector<std::uint8_t> payload;
  Writer w(payload);
  w.str(fingerprint(sim));
  save_stepper(w, st);
  save_streams(w, sim);
  save_packets(w, ws.packets_);
  save_network(w, ws.net_);
  save_nis(w, ws.nis_);
  save_rc(w, ws.rc_units_);
  save_surgeon(w, ws.surgeon_);
  save_worklists(w, ws);
  save_results(w, ws.results_);

  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  out.insert(out.end(), kMagic, kMagic + 8);
  Writer frame(out);
  frame.u32(kSnapshotVersion);
  frame.u64(payload.size());
  frame.u64(fnv1a(payload.data(), payload.size()));
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
  Reader header(data.data() + 8, kHeaderBytes - 8);
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
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
  restore_stepper(r, st);
  restore_streams(r, sim);
  restore_packets(r, ws.packets_);
  restore_network(r, ws.net_);
  restore_nis(r, ws.nis_);
  restore_rc(r, ws.rc_units_);
  restore_surgeon(r, ws.surgeon_, sim);
  restore_worklists(r, ws);
  restore_results(r, ws.results_);
  if (!r.exhausted()) {
    throw SnapshotError("snapshot holds trailing bytes past its payload");
  }
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
