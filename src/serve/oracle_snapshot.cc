#include "serve/oracle_snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/recommendations.h"
#include "serve/snapshot_builder.h"
#include "util/check.h"

namespace turtle::serve {

// A copied heap image would leave the copy's view pointing into the source;
// a move keeps the bytes (and so the view) where they are.
static_assert(!std::is_copy_constructible_v<OracleSnapshot> &&
              !std::is_copy_assignable_v<OracleSnapshot>);
static_assert(std::is_nothrow_move_constructible_v<OracleSnapshot>);

namespace {

/// Saturating sample-confidence factor: 0 at n = 0, -> 1 as n grows.
double sample_factor(std::uint64_t n) {
  return static_cast<double>(n) / (static_cast<double>(n) + 16.0);
}

/// Position of `key` in a sorted key section, if present.
bool position_of(std::span<const std::uint32_t> keys, std::uint32_t key, std::size_t& index) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return false;
  index = static_cast<std::size_t>(it - keys.begin());
  return true;
}

}  // namespace

const char* lookup_scope_name(LookupScope scope) {
  switch (scope) {
    case LookupScope::kBlock:
      return "block";
    case LookupScope::kAs:
      return "as";
    case LookupScope::kGlobal:
      return "global";
  }
  TURTLE_UNREACHABLE();
}

OracleSnapshot OracleSnapshot::build(const probe::RecordLog& log, SnapshotConfig config,
                                     const hosts::GeoDatabase* geo) {
  std::ostringstream os;
  write_snapshot(log, config, geo, os);
  const std::string bytes = std::move(os).str();
  // A new[] of unsigned char is aligned for any fundamental type no larger
  // than the array ([expr.new]), so the in-place section reads hold; and
  // View::open checks it.
  OracleSnapshot snapshot;
  snapshot.image_ = std::make_unique_for_overwrite<unsigned char[]>(bytes.size());
  std::memcpy(snapshot.image_.get(), bytes.data(), bytes.size());
  std::string error;
  TURTLE_CHECK(snapshot.open(snapshot.image_.get(), bytes.size(), &error))
      << "in-memory snapshot image failed validation: " << error;
  return snapshot;
}

bool OracleSnapshot::open(const unsigned char* data, std::size_t size, std::string* error) {
  if (!snapshot_format::View::open(data, size, view_, error)) return false;
  // Big arrays stay in the image; only the tiny Table 2 matrix is
  // materialized (global lookups hand it to core::recommend_timeout).
  matrix_ = view_.matrix();
  return true;
}

LookupResult OracleSnapshot::lookup(net::Ipv4Address addr, double addr_coverage,
                                    double ping_coverage, LookupScope min_scope) const {
  const snapshot_format::Header& header = view_.header();
  const std::uint32_t network = net::Prefix24::containing(addr).network();
  const std::size_t p = percentile_index(ping_coverage);

  std::size_t block = 0;
  const bool known_block =
      min_scope != LookupScope::kGlobal && position_of(view_.block_keys(), network, block);
  if (known_block && min_scope == LookupScope::kBlock) {
    const std::uint64_t samples = view_.block_samples(block);
    if (samples >= header.min_block_samples) {
      return LookupResult{
          .timeout = SimTime::from_seconds(view_.block_quantile(block, p).value()),
          .scope = LookupScope::kBlock,
          .samples = samples,
          .confidence = 1.0 * sample_factor(samples),
          .version = header.snapshot_version,
      };
    }
  }
  const std::uint32_t asn = known_block ? view_.block_asn()[block] : snapshot_format::kNoAsn;
  std::size_t as_index = 0;
  if (asn != snapshot_format::kNoAsn && position_of(view_.as_keys(), asn, as_index)) {
    const std::uint64_t samples = view_.as_samples(as_index);
    if (samples >= header.min_as_samples) {
      return LookupResult{
          .timeout = SimTime::from_seconds(view_.as_quantile(as_index, p).value()),
          .scope = LookupScope::kAs,
          .samples = samples,
          .confidence = 0.9 * sample_factor(samples),
          .version = header.snapshot_version,
      };
    }
  }
  LookupResult global{
      .timeout = SimTime{},
      .scope = LookupScope::kGlobal,
      .samples = header.total_samples,
      .confidence = 0.0,
      .version = header.snapshot_version,
  };
  if (has_data()) {
    global.timeout = core::recommend_timeout(matrix_, addr_coverage, ping_coverage);
    global.confidence = 0.75 * sample_factor(header.total_samples);
  }
  return global;
}

std::uint64_t OracleSnapshot::block_samples(net::Ipv4Address addr) const {
  std::size_t index = 0;
  return position_of(view_.block_keys(), net::Prefix24::containing(addr).network(), index)
             ? view_.block_samples(index)
             : 0;
}

void OracleSnapshot::write(const std::string& path) const {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  TURTLE_CHECK(os.is_open()) << "cannot create snapshot file " << path;
  write(os);
}

void OracleSnapshot::write(std::ostream& os) const { view_.write(os); }

std::shared_ptr<const OracleSnapshot> OracleSnapshot::map(const std::string& path,
                                                          std::string* error,
                                                          obs::Registry* registry) {
  std::string local_error;
  util::MappedFile file = util::MappedFile::open(path, &local_error);
  auto snapshot = std::shared_ptr<OracleSnapshot>{new OracleSnapshot};
  snapshot->file_ = std::move(file);
  if (snapshot->file_.valid() &&
      snapshot->open(snapshot->file_.data(), snapshot->file_.size(), &local_error)) {
    return snapshot;
  }
  if (error != nullptr) *error = local_error;
  // Tolerant-loading ledger: a refused snapshot is a counted fault
  // observation, mirroring the record loader's detectable-corruption
  // accounting, never a silent nullptr.
  if (registry != nullptr) registry->counter("fault.snapshot.load_rejected").inc();
  return nullptr;
}

std::size_t OracleSnapshot::percentile_index(double p) const {
  // Same nearest-percentile clamping core::recommend_timeout uses, so the
  // tiers agree on what "99% ping coverage" means.
  const std::span<const double> percentiles = view_.percentiles();
  std::size_t best = 0;
  double best_dist = std::abs(percentiles[0] - p);
  for (std::size_t i = 1; i < percentiles.size(); ++i) {
    const double d = std::abs(percentiles[i] - p);
    if (d < best_dist) {
      best = i;
      best_dist = d;
    }
  }
  return best;
}

}  // namespace turtle::serve
