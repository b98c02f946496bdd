#include "sim/snapshot.hpp"

#include <cstring>
#include <fstream>

namespace art9::sim {

namespace {

constexpr uint8_t kMagic[8] = {'A', 'R', 'T', '9', 'S', 'N', 'A', 'P'};
constexpr uint16_t kVersion = 1;
constexpr uint8_t kIsaArt9 = 0;
constexpr uint8_t kIsaRv32 = 1;

/// The one encoder behind serialize_snapshot and state_digest: writes
/// little-endian fields (the format is fixed regardless of host
/// endianness), appending them to `out` when one is given and always
/// folding them into a running FNV-1a 64.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void bytes(const uint8_t* data, std::size_t size) {
    if (out_ != nullptr) out_->insert(out_->end(), data, data + size);
    hash_ = fnv1a_64(data, size, hash_);
  }

  void u8(uint8_t v) { le(v); }
  void u16(uint16_t v) { le(v); }
  void u32(uint32_t v) { le(v); }
  void u64(uint64_t v) { le(v); }
  void i16(int16_t v) { le(static_cast<uint16_t>(v)); }
  void i64(int64_t v) { le(static_cast<uint64_t>(v)); }

  /// Room for `extra` more bytes, so a large span lands in one allocation.
  void reserve(std::size_t extra) {
    if (out_ != nullptr) out_->reserve(out_->size() + extra);
  }

  [[nodiscard]] uint64_t hash() const noexcept { return hash_; }

 private:
  template <typename U>
  void le(U v) {
    uint8_t b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    bytes(b, sizeof(U));
  }

  std::vector<uint8_t>* out_;
  uint64_t hash_ = kFnvOffset;
};

/// Bounds-checked little-endian cursor over the payload bytes.
class Reader {
 public:
  Reader(const uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] uint8_t u8() { return take(1)[0]; }

  [[nodiscard]] uint16_t u16() {
    const uint8_t* p = take(2);
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
  }

  [[nodiscard]] uint32_t u32() {
    const uint8_t* p = take(4);
    uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<uint32_t>(p[b]) << (8 * b);
    return v;
  }

  [[nodiscard]] uint64_t u64() {
    const uint8_t* p = take(8);
    uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(p[b]) << (8 * b);
    return v;
  }

  [[nodiscard]] int16_t i16() { return static_cast<int16_t>(u16()); }
  [[nodiscard]] int64_t i64() { return static_cast<int64_t>(u64()); }

  [[nodiscard]] const uint8_t* take(std::size_t n) {
    if (n > size_ - pos_) throw SimError("snapshot: truncated payload");
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Validated i16 -> Word9 (registers and TDM rows share the range).
ternary::Word9 word9_of(int16_t value, const char* what) {
  if (value < -ternary::Word9::kMaxValue || value > ternary::Word9::kMaxValue) {
    throw SimError("snapshot: " + std::string(what) + " value " + std::to_string(value) +
                   " outside the 9-trit range");
  }
  return ternary::Word9::from_int(value);
}

void put_art9(Writer& out, const ArchState& s) {
  out.i64(s.pc);
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    out.i16(static_cast<int16_t>(s.trf.read(i).to_int()));
  }
  out.u64(s.tdm.reads());
  out.u64(s.tdm.writes());
  // Sparse TDM: only non-zero rows, ascending row order (canonical form —
  // equal states serialize to identical blobs).
  std::vector<std::pair<uint32_t, int16_t>> rows;
  for (int64_t row = 0; row < TernaryMemory::kRows; ++row) {
    const ternary::Word9& w = s.tdm.peek(row - ternary::Word9::kMaxValue);
    if (w == ternary::Word9{}) continue;
    rows.emplace_back(static_cast<uint32_t>(row), static_cast<int16_t>(w.to_int()));
  }
  out.u32(static_cast<uint32_t>(rows.size()));
  for (const auto& [row, value] : rows) {
    out.u32(row);
    out.i16(value);
  }
}

ArchState read_art9(Reader& in) {
  ArchState s;
  const int64_t pc = in.i64();
  check_t9_address(pc, "snapshot pc");
  s.pc = pc;
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    s.trf.write(i, word9_of(in.i16(), "register"));
  }
  const uint64_t reads = in.u64();
  const uint64_t writes = in.u64();
  const uint32_t nrows = in.u32();
  if (nrows > static_cast<uint32_t>(TernaryMemory::kRows)) {
    throw SimError("snapshot: TDM row count " + std::to_string(nrows) + " exceeds " +
                   std::to_string(TernaryMemory::kRows));
  }
  for (uint32_t i = 0; i < nrows; ++i) {
    const uint32_t row = in.u32();
    if (row >= static_cast<uint32_t>(TernaryMemory::kRows)) {
      throw SimError("snapshot: TDM row " + std::to_string(row) + " out of range");
    }
    s.tdm.poke(static_cast<int64_t>(row) - ternary::Word9::kMaxValue,
               word9_of(in.i16(), "TDM row"));
  }
  s.tdm.set_counters(reads, writes);
  return s;
}

void put_rv32(Writer& out, const rv32::Rv32ArchState& s) {
  out.u32(s.pc);
  for (uint32_t r : s.regs) out.u32(r);
  out.u64(s.ram.size());
  out.reserve(s.ram.size() + 8);  // the RAM span, then the checksum
  out.bytes(s.ram.data(), s.ram.size());
}

rv32::Rv32ArchState read_rv32(Reader& in) {
  rv32::Rv32ArchState s;
  s.pc = in.u32();
  for (uint32_t& r : s.regs) r = in.u32();
  if (s.regs[0] != 0) throw SimError("snapshot: rv32 x0 is nonzero");
  const uint64_t ram_size = in.u64();
  if (ram_size > in.remaining()) throw SimError("snapshot: truncated payload");
  const uint8_t* bytes = in.take(static_cast<std::size_t>(ram_size));
  s.ram.assign(bytes, bytes + ram_size);
  return s;
}

/// Encodes `state` and its trailing checksum, appending the bytes to
/// `out` when one is given; returns the FNV-1a 64 of all of them.
uint64_t encode(const MachineState& state, std::vector<uint8_t>* out) {
  Writer w(out);
  w.bytes(kMagic, sizeof(kMagic));
  w.u16(kVersion);
  if (state.is_art9()) {
    w.u8(kIsaArt9);
    put_art9(w, state.art9());
  } else {
    w.u8(kIsaRv32);
    put_rv32(w, state.rv32());
  }
  w.u64(w.hash());
  return w.hash();
}

}  // namespace

uint64_t fnv1a_64(const void* data, std::size_t size, uint64_t hash) noexcept {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::vector<uint8_t> serialize_snapshot(const MachineState& state) {
  std::vector<uint8_t> out;
  static_cast<void>(encode(state, &out));
  return out;
}

uint64_t state_digest(const MachineState& state) { return encode(state, nullptr); }

MachineState deserialize_snapshot(const uint8_t* data, std::size_t size) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 2 + 1;
  if (size < kHeader + 8) throw SimError("snapshot: blob too short");
  const uint64_t stored = Reader(data + size - 8, 8).u64();
  if (stored != fnv1a_64(data, size - 8)) throw SimError("snapshot: checksum mismatch");
  Reader in(data, size - 8);
  if (std::memcmp(in.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    throw SimError("snapshot: bad magic");
  }
  const uint16_t version = in.u16();
  if (version != kVersion) {
    throw SimError("snapshot: unsupported version " + std::to_string(version));
  }
  const uint8_t isa = in.u8();
  MachineState state;
  switch (isa) {
    case kIsaArt9:
      state = MachineState{read_art9(in)};
      break;
    case kIsaRv32:
      state = MachineState{read_rv32(in)};
      break;
    default:
      throw SimError("snapshot: unknown ISA tag " + std::to_string(isa));
  }
  if (in.remaining() != 0) {
    throw SimError("snapshot: " + std::to_string(in.remaining()) + " trailing bytes");
  }
  return state;
}

MachineState deserialize_snapshot(const std::vector<uint8_t>& blob) {
  return deserialize_snapshot(blob.data(), blob.size());
}

void save_snapshot_file(const std::string& path, const MachineState& state) {
  const std::vector<uint8_t> blob = serialize_snapshot(state);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(blob.data()), static_cast<std::streamsize>(blob.size()));
  if (!out) throw SimError("snapshot: cannot write " + path);
}

MachineState load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SimError("snapshot: cannot read " + path);
  std::vector<uint8_t> blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return deserialize_snapshot(blob);
}

}  // namespace art9::sim
