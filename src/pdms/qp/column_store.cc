#include "pdms/qp/column_store.h"

#include <utility>

#include "pdms/util/check.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace qp {
namespace {

// Cap on cached join tables per relation; beyond it the map is dropped
// wholesale (simple, and hit only by pathological plan diversity).
constexpr size_t kMaxJoinTablesPerRelation = 32;

uint64_t MixStat(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

void FlatTable::Build(const std::vector<uint64_t>& hashes) {
  size_t n = hashes.size();
  next_.assign(n, -1);
  if (n == 0) {
    mask_ = 0;
    slot_head_.clear();
    slot_hash_.clear();
    return;
  }
  size_t cap = 8;
  while (cap < 2 * n) cap <<= 1;
  mask_ = cap - 1;
  slot_head_.assign(cap, -1);
  slot_hash_.assign(cap, 0);
  // Inserting in reverse with push-front chaining leaves every chain in
  // ascending entry order, which is the determinism contract.
  for (size_t i = n; i-- > 0;) {
    uint64_t h = hashes[i];
    size_t j = h & mask_;
    while (slot_head_[j] >= 0 && slot_hash_[j] != h) j = (j + 1) & mask_;
    slot_hash_[j] = h;
    next_[i] = slot_head_[j];
    slot_head_[j] = static_cast<int32_t>(i);
  }
}

bool FlatHashSet::Insert(uint64_t h) {
  if (h == 0) {
    if (has_zero_) return false;
    has_zero_ = true;
    return true;
  }
  // Keep the load at or below 3/4 so linear probing stays short.
  if (4 * (count_ + 1) > 3 * slots_.size()) Grow();
  size_t j = h & mask_;
  while (slots_[j] != 0) {
    if (slots_[j] == h) return false;
    j = (j + 1) & mask_;
  }
  slots_[j] = h;
  ++count_;
  return true;
}

void FlatHashSet::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  size_t cap = old.empty() ? 8 : 2 * old.size();
  slots_.assign(cap, 0);
  mask_ = cap - 1;
  for (uint64_t h : old) {
    if (h == 0) continue;
    size_t j = h & mask_;
    while (slots_[j] != 0) j = (j + 1) & mask_;
    slots_[j] = h;
  }
}

uint32_t StringDict::Intern(const std::string& s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.push_back(s);
  ids_.emplace(s, id);
  return id;
}

std::optional<uint32_t> StringDict::Find(const std::string& s) const {
  auto it = ids_.find(s);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

Code ColumnarCatalog::Encode(const Value& v) {
  Code c;
  c.kind = static_cast<uint8_t>(v.kind());
  switch (v.kind()) {
    case Value::Kind::kNull:
      c.payload = v.null_id();
      break;
    case Value::Kind::kInt:
      c.payload = v.int_value();
      break;
    case Value::Kind::kString:
      c.payload = dict_.Intern(v.string_value());
      break;
  }
  return c;
}

std::optional<Code> ColumnarCatalog::EncodeExisting(const Value& v) const {
  Code c;
  c.kind = static_cast<uint8_t>(v.kind());
  switch (v.kind()) {
    case Value::Kind::kNull:
      c.payload = v.null_id();
      break;
    case Value::Kind::kInt:
      c.payload = v.int_value();
      break;
    case Value::Kind::kString: {
      std::optional<uint32_t> id = dict_.Find(v.string_value());
      if (!id.has_value()) return std::nullopt;
      c.payload = *id;
      break;
    }
  }
  return c;
}

Value ColumnarCatalog::Decode(const Code& c) const {
  switch (static_cast<Value::Kind>(c.kind)) {
    case Value::Kind::kNull:
      return Value::Null(c.payload);
    case Value::Kind::kInt:
      return Value::Int(c.payload);
    case Value::Kind::kString:
      return Value::String(dict_.At(static_cast<size_t>(c.payload)));
  }
  PDMS_CHECK_MSG(false, "bad code kind");
  return Value::Int(0);
}

void ColumnarCatalog::AppendRows(Entry* entry, const Relation& rel,
                                 size_t from_row) {
  // Distinct sets stay resident only for relations that grow by appends
  // (fact inserts): a whole conversion counts through sets it then frees,
  // and the first append rebuilds them from the codes.
  if (entry->distinct_hashes.empty()) {
    entry->distinct_hashes.assign(rel.arity(), {});
    for (size_t col = 0; col < rel.arity(); ++col) {
      const CodeColumn& codes = entry->data.cols[col];
      for (size_t row = 0; row < codes.size(); ++row) {
        entry->distinct_hashes[col].Insert(CodeHash(codes[row]));
      }
    }
  }
  const std::vector<Tuple>& tuples = rel.tuples();
  for (size_t row = from_row; row < tuples.size(); ++row) {
    const Tuple& t = tuples[row];
    for (size_t col = 0; col < rel.arity(); ++col) {
      Code c = Encode(t[col]);
      entry->data.cols[col].Append(c);
      if (entry->distinct_hashes[col].Insert(CodeHash(c))) {
        ++entry->stats.distinct[col];
      }
    }
  }
  if (from_row == 0) entry->distinct_hashes.clear();
  entry->data.rows = tuples.size();
  entry->stats.rows = tuples.size();
  entry->rebuild_version = rel.rebuild_version();
  entry->src = &rel;
}

const ColumnarRelation* ColumnarCatalog::Ensure(const Relation& rel,
                                                obs::MetricsRegistry* metrics) {
  Entry& entry = entries_[rel.name()];
  const bool same_src = entry.src == &rel &&
                        entry.rebuild_version == rel.rebuild_version() &&
                        entry.data.arity == rel.arity();
  if (same_src && entry.data.rows == rel.size()) return &entry.data;

  size_t from_row = 0;
  if (same_src && entry.data.rows < rel.size()) {
    // Appends only since last Ensure: convert just the new suffix.
    from_row = entry.data.rows;
  } else {
    entry.data = ColumnarRelation{};
    entry.data.arity = rel.arity();
    entry.data.cols.assign(rel.arity(), {});
    entry.stats = TableStats{};
    entry.stats.distinct.assign(rel.arity(), 0);
    entry.distinct_hashes.clear();
    if (metrics != nullptr) metrics->Add("qp.stats_rebuilds", 1);
  }
  size_t appended = rel.size() - from_row;
  AppendRows(&entry, rel, from_row);
  entry.join_tables.clear();
  if (metrics != nullptr && appended > 0) {
    metrics->Add("qp.stats_rows_appended", static_cast<int64_t>(appended));
  }
  return &entry.data;
}

const ColumnarRelation* ColumnarCatalog::Find(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  return &it->second.data;
}

const TableStats* ColumnarCatalog::stats(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  return &it->second.stats;
}

const JoinTable* ColumnarCatalog::FindJoinTable(
    const std::string& relation, const std::string& signature) const {
  auto it = entries_.find(relation);
  if (it == entries_.end()) return nullptr;
  auto jt = it->second.join_tables.find(signature);
  if (jt == it->second.join_tables.end()) return nullptr;
  return jt->second.get();
}

const JoinTable* ColumnarCatalog::StoreJoinTable(const std::string& relation,
                                                 const std::string& signature,
                                                 JoinTable table) {
  auto it = entries_.find(relation);
  if (it == entries_.end()) return nullptr;
  auto& tables = it->second.join_tables;
  if (tables.size() >= kMaxJoinTablesPerRelation) tables.clear();
  auto owned = std::make_unique<JoinTable>(std::move(table));
  const JoinTable* raw = owned.get();
  tables[signature] = std::move(owned);
  return raw;
}

uint64_t ColumnarCatalog::StatsFingerprint(
    const std::vector<std::string>& relations) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& name : relations) {
    for (char ch : name) h = MixStat(h, static_cast<uint64_t>(ch));
    const TableStats* s = stats(name);
    if (s == nullptr) {
      h = MixStat(h, 0xdeadULL);
      continue;
    }
    h = MixStat(h, s->rows);
    for (size_t d : s->distinct) h = MixStat(h, d);
  }
  return h;
}

Relation ToRowRelation(const std::string& name, const ColumnarRelation& col,
                       const StringDict& dict) {
  Relation out(name, col.arity);
  for (size_t row = 0; row < col.rows; ++row) {
    Tuple t;
    t.reserve(col.arity);
    for (size_t c = 0; c < col.arity; ++c) {
      const Code code = col.cols[c][row];
      switch (static_cast<Value::Kind>(code.kind)) {
        case Value::Kind::kNull:
          t.push_back(Value::Null(code.payload));
          break;
        case Value::Kind::kInt:
          t.push_back(Value::Int(code.payload));
          break;
        case Value::Kind::kString:
          t.push_back(Value::String(dict.At(static_cast<size_t>(code.payload))));
          break;
      }
    }
    out.Insert(std::move(t));
  }
  return out;
}

}  // namespace qp
}  // namespace pdms
