#include "serve/snapshot_builder.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/percentiles.h"
#include "analysis/pipeline.h"
#include "core/p2_quantile.h"
#include "net/ipv4.h"
#include "serve/snapshot_format.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace turtle::serve {

namespace sf = snapshot_format;

namespace {

/// One tier aggregate under construction: an estimator per tracked
/// percentile plus the pool size. Block and AS tiers fold through here,
/// in the streaming build and the in-memory one alike.
struct Aggregate {
  std::vector<core::P2Quantile> quantiles;
  std::uint64_t samples = 0;
};

Aggregate make_aggregate(const std::vector<double>& percentiles) {
  Aggregate aggregate;
  aggregate.quantiles.reserve(percentiles.size());
  for (const double p : percentiles) aggregate.quantiles.emplace_back(p / 100.0);
  return aggregate;
}

void fold(Aggregate& aggregate, double rtt_s) {
  for (core::P2Quantile& quantile : aggregate.quantiles) quantile.add(rtt_s);
  ++aggregate.samples;
}

/// The three block sections, in file order. A shard's fold produces its
/// run of each, and the file's section is the shard runs concatenated.
constexpr std::array<sf::Section, 3> kBlockSections = {sf::kBlockKeys, sf::kBlockAsn,
                                                       sf::kBlockAggs};

/// One shard's fold, encoded in the snapshot's own byte conventions.
struct ShardFold {
  /// This shard's run of each block section, indexed like kBlockSections.
  std::array<std::string, kBlockSections.size()> blocks;
  /// The AS-tier fold sequence: per report, in canonical order, the
  /// block's ASN (u32), the RTT count n (u32) and n RTTs (f64).
  std::string as_run;
  /// Per-address percentile columns for the matrix: the address count
  /// (u64), then one column of f64 values per tracked percentile.
  std::string columns;
  std::size_t block_count = 0;
  std::uint64_t address_count = 0;
  std::uint64_t total_samples = 0;
};

/// Folds one shard: run the filtering pipeline over the shard's records,
/// walk reports in the canonical network order, freeze block aggregates,
/// and record the AS-tier RTT run plus the matrix columns.
ShardFold fold_shard(const probe::RecordLog& log, const SnapshotConfig& config,
                     const hosts::GeoDatabase* geo) {
  ShardFold out;
  analysis::SurveyDataset dataset = analysis::SurveyDataset::from_log(log);
  // No registry: the serving layer publishes serve.* metrics, not a second
  // copy of pipeline.*.
  analysis::PipelineConfig pipeline_config;
  const analysis::PipelineResult result = analysis::run_pipeline(dataset, pipeline_config);

  // Canonical fold order: reports stable-sorted by /24 network. P2 marker
  // states depend on fold order, so the order is part of the format's
  // determinism contract. Shards cover contiguous ascending network
  // ranges, so folding each in this order and concatenating reproduces
  // the one-shard fold exactly. Within a network (and per address) the
  // log's order is preserved, which is what "stable" buys.
  std::vector<const analysis::AddressReport*> canonical;
  canonical.reserve(result.addresses.size());
  for (const analysis::AddressReport& report : result.addresses) canonical.push_back(&report);
  std::stable_sort(canonical.begin(), canonical.end(),
                   [](const analysis::AddressReport* a, const analysis::AddressReport* b) {
                     return net::Prefix24::containing(a->address).network() <
                            net::Prefix24::containing(b->address).network();
                   });

  std::size_t as_run_bytes = 0;
  for (const analysis::AddressReport& report : result.addresses) {
    as_run_bytes += 8 + 8 * report.rtts_s.size();
  }
  if (geo != nullptr) out.as_run.reserve(as_run_bytes);

  Aggregate block = make_aggregate(config.percentiles);
  std::uint32_t block_network = 0;
  std::uint32_t block_asn = sf::kNoAsn;
  bool block_open = false;
  const auto flush_block = [&] {
    if (!block_open) return;
    sf::append_u32(out.blocks[0], block_network);
    sf::append_u32(out.blocks[1], block_asn);
    sf::append_aggregate(out.blocks[2], block.samples, block.quantiles);
    ++out.block_count;
    block = make_aggregate(config.percentiles);
    block_open = false;
  };

  for (const analysis::AddressReport* report : canonical) {
    const std::uint32_t network = net::Prefix24::containing(report->address).network();
    if (!block_open || network != block_network) {
      flush_block();
      block_open = true;
      block_network = network;
      block_asn = sf::kNoAsn;
      if (geo != nullptr) {
        if (const hosts::AsTraits* traits = geo->lookup(report->address); traits != nullptr) {
          block_asn = traits->asn;
        }
      }
    }
    for (const double rtt_s : report->rtts_s) {
      fold(block, rtt_s);
      ++out.total_samples;
    }
    if (block_asn != sf::kNoAsn && !report->rtts_s.empty()) {
      sf::append_u32(out.as_run, block_asn);
      sf::append_u32(out.as_run, static_cast<std::uint32_t>(report->rtts_s.size()));
      for (const double rtt_s : report->rtts_s) sf::append_f64(out.as_run, rtt_s);
    }
  }
  flush_block();

  // Matrix columns: per-address percentile values. Column order depends
  // on the shard cut, but the matrix percentiles sort each column first,
  // so the cells are bitwise identical for any cut.
  const analysis::PerAddressPercentiles per_address = analysis::PerAddressPercentiles::compute(
      result.addresses, config.percentiles, config.min_samples_per_address);
  out.address_count = per_address.address_count();
  sf::append_u64(out.columns, out.address_count);
  for (const std::vector<double>& column : per_address.values) {
    TURTLE_CHECK_EQ(column.size(), out.address_count);
    for (const double value : column) sf::append_f64(out.columns, value);
  }
  return out;
}

/// Pass D's merge of shard folds, taken in shard index order.
struct Merge {
  explicit Merge(const SnapshotConfig& config) : config{config} {
    per_address.percentiles = config.percentiles;
    per_address.values.assign(config.percentiles.size(), {});
  }

  /// Adds one shard: its counts, its AS fold sequence and its matrix
  /// columns (the ShardFold::as_run and ShardFold::columns encodings).
  void add(std::size_t shard_blocks, std::uint64_t shard_samples, std::string_view as_run,
           std::string_view columns) {
    block_count += shard_blocks;
    total_samples += shard_samples;

    // P2 states cannot be merged, so replay the canonical RTT sequence
    // into per-AS estimators: the same fold, in the same order.
    std::size_t at = 0;
    while (at < as_run.size()) {
      if (as_run.size() - at < 8) {
        throw std::runtime_error("snapshot builder: truncated AS run");
      }
      const std::uint32_t asn = sf::read_u32(as_run.data() + at);
      const std::uint32_t n = sf::read_u32(as_run.data() + at + 4);
      at += 8;
      if ((as_run.size() - at) / 8 < n) {
        throw std::runtime_error("snapshot builder: truncated AS run");
      }
      auto [it, inserted] = ases.try_emplace(asn);
      if (inserted) it->second = make_aggregate(config.percentiles);
      for (std::uint32_t s = 0; s < n; ++s, at += 8) {
        fold(it->second, sf::read_f64(as_run.data() + at));
      }
    }

    // Concatenate the per-address percentile columns.
    const std::uint64_t count = columns.size() < 8 ? 0 : sf::read_u64(columns.data());
    if (columns.size() != 8 + count * 8 * per_address.values.size()) {
      throw std::runtime_error("snapshot builder: truncated matrix columns");
    }
    const char* value = columns.data() + 8;
    for (std::vector<double>& column : per_address.values) {
      for (std::uint64_t a = 0; a < count; ++a, value += 8) column.push_back(sf::read_f64(value));
    }
  }

  /// Pass D's write: fills the header from the merged counts and emits
  /// every section in file order. Only the block sections come from the
  /// caller, which holds them (`put_block_section(writer, i)` emits
  /// kBlockSections[i]).
  void write(std::ostream& os,
             const std::function<void(sf::Writer&, std::size_t)>& put_block_section) const {
    // The global tier is exactly the offline Table 2 recipe
    // (bench/table2_timeout_matrix.cc): per-address percentiles, then
    // percentile-of-percentiles, so global lookups equal
    // core::recommend_timeout on the same cells.
    analysis::TimeoutMatrix matrix;
    if (per_address.address_count() > 0) {
      matrix = analysis::TimeoutMatrix::compute(per_address, config.percentiles);
    }
    sf::Header header;
    header.snapshot_version = config.version;
    header.total_samples = total_samples;
    header.min_block_samples = config.min_block_samples;
    header.min_as_samples = config.min_as_samples;
    header.min_samples_per_address = config.min_samples_per_address;
    header.percentile_count = static_cast<std::uint32_t>(config.percentiles.size());
    header.block_count = static_cast<std::uint32_t>(block_count);
    header.as_count = static_cast<std::uint32_t>(ases.size());
    header.matrix_rows = static_cast<std::uint32_t>(matrix.cells.size());
    header.matrix_cols =
        static_cast<std::uint32_t>(matrix.cells.empty() ? 0 : matrix.cells.front().size());
    if (header.matrix_rows > 0 && header.matrix_cols > 0) header.flags |= sf::kFlagHasMatrix;

    sf::Writer writer{os, header};
    writer.begin_section(sf::kPercentiles);
    for (const double p : config.percentiles) writer.put_f64(p);
    for (std::size_t i = 0; i < kBlockSections.size(); ++i) {
      writer.begin_section(kBlockSections[i]);
      put_block_section(writer, i);
    }
    writer.begin_section(sf::kAsKeys);
    for (const auto& [asn, aggregate] : ases) writer.put_u32(asn);
    writer.begin_section(sf::kAsAggs);
    for (const auto& [asn, aggregate] : ases) {
      writer.put_aggregate(aggregate.samples, aggregate.quantiles);
    }
    writer.begin_section(sf::kMatrixRows);
    for (const double r : matrix.row_percentiles) writer.put_f64(r);
    writer.begin_section(sf::kMatrixCols);
    for (const double c : matrix.col_percentiles) writer.put_f64(c);
    writer.begin_section(sf::kMatrixCells);
    for (const std::vector<double>& row : matrix.cells) {
      for (const double cell : row) writer.put_f64(cell);
    }
    writer.finish();
  }

  const SnapshotConfig& config;
  std::size_t block_count = 0;
  std::uint64_t total_samples = 0;
  std::map<std::uint32_t, Aggregate> ases;  ///< std::map: deterministic key order
  analysis::PerAddressPercentiles per_address;
};

/// Contiguous ascending /24 range assigned to one shard.
struct ShardRange {
  std::uint32_t first_network = 0;
  std::uint64_t records = 0;
};

struct ShardOutput {
  std::size_t block_count = 0;
  std::uint64_t address_count = 0;
  std::uint64_t total_samples = 0;
  std::string error;  ///< non-empty when the shard fold threw
};

struct SpillPaths {
  std::string records;
  std::array<std::string, kBlockSections.size()> blocks;
  std::string as_run, columns;
};

SpillPaths spill_paths(const std::string& prefix, std::size_t shard) {
  const std::string base = prefix + "shard" + std::to_string(shard);
  return SpillPaths{base + ".rec", {base + ".key", base + ".asn", base + ".agg"}, base + ".asrun",
                    base + ".mat"};
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os.is_open()) throw std::runtime_error("snapshot builder: cannot create " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is.is_open()) throw std::runtime_error("snapshot builder: cannot open " + path);
  return is;
}

void write_spill(const std::string& path, const std::string& bytes) {
  std::ofstream os = open_out(path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os) throw std::runtime_error("snapshot builder: spill write failed: " + path);
}

std::string read_spill(const std::string& path) {
  std::ifstream is = open_in(path);
  is.seekg(0, std::ios_base::end);
  std::string bytes(static_cast<std::size_t>(is.tellg()), '\0');
  is.seekg(0);
  if (!is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("snapshot builder: cannot read " + path);
  }
  return bytes;
}

void remove_spills(const SpillPaths& paths) {
  std::remove(paths.records.c_str());
  for (const std::string& path : paths.blocks) std::remove(path.c_str());
  std::remove(paths.as_run.c_str());
  std::remove(paths.columns.c_str());
}

/// Streams a whole spill file into the writer (used for the block
/// sections, whose global sorted order is exactly shard-concatenation).
void concat_file(sf::Writer& writer, const std::string& path) {
  std::ifstream is = open_in(path);
  std::vector<char> buffer(64 * 1024);
  while (is) {
    is.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got == 0) break;
    writer.put_bytes(buffer.data(), got);
  }
}

/// Pass C for one shard: load its record spill, fold it, spill the fold.
ShardOutput fold_spilled_shard(const SpillPaths& paths, const BuilderConfig& config) {
  std::ifstream is = open_in(paths.records);
  const ShardFold fold = fold_shard(probe::RecordLog::load(is), config.snapshot, config.geo);
  for (std::size_t i = 0; i < kBlockSections.size(); ++i) {
    write_spill(paths.blocks[i], fold.blocks[i]);
  }
  write_spill(paths.as_run, fold.as_run);
  write_spill(paths.columns, fold.columns);
  return ShardOutput{fold.block_count, fold.address_count, fold.total_samples, {}};
}

}  // namespace

void write_snapshot(const probe::RecordLog& log, const SnapshotConfig& config,
                    const hosts::GeoDatabase* geo, std::ostream& os) {
  TURTLE_CHECK(!config.percentiles.empty()) << "snapshot needs at least one percentile";
  const ShardFold shard = fold_shard(log, config, geo);
  Merge merge{config};
  merge.add(shard.block_count, shard.total_samples, shard.as_run, shard.columns);
  merge.write(os, [&shard](sf::Writer& writer, std::size_t i) {
    writer.put_bytes(shard.blocks[i].data(), shard.blocks[i].size());
  });
}

BuildLedger build_snapshot_file(const std::string& log_path, const std::string& out_path,
                                const BuilderConfig& config) {
  TURTLE_CHECK(!config.snapshot.percentiles.empty()) << "snapshot needs at least one percentile";
  TURTLE_CHECK_GT(config.max_shards, 0u);
  const std::string prefix =
      config.temp_prefix.empty() ? out_path + ".tmp." : config.temp_prefix;

  BuildLedger ledger;

  // Pass A: one streaming scan — records per /24 network, tolerant-loader
  // accounting. Memory: one counter per distinct block, same order as the
  // final index itself.
  std::map<std::uint32_t, std::uint64_t> records_per_network;
  {
    std::ifstream is = open_in(log_path);
    is.seekg(0, std::ios_base::end);
    ledger.log_bytes = static_cast<std::uint64_t>(is.tellg());
    is.seekg(0);
    probe::RecordReader reader{is};
    probe::SurveyRecord record;
    while (reader.next(record)) {
      ++records_per_network[net::Prefix24::containing(record.address).network()];
    }
    const probe::RecordLog::LoadStats& stats = reader.stats();
    ledger.records_in = stats.records_loaded + stats.records_skipped + stats.records_truncated;
    ledger.records_folded = stats.records_loaded;
    ledger.records_skipped = stats.records_skipped + stats.records_truncated;
  }

  // Shard plan: cut the ascending network space greedily so each shard
  // holds ~shard_budget_bytes of log. A pure function of the log and the
  // budget — the same plan at --jobs 1 and --jobs 8.
  const std::uint64_t record_bytes =
      ledger.records_folded * probe::RecordLog::kRecordBytes;
  const std::uint64_t budget = std::max<std::uint64_t>(config.shard_budget_bytes, 1);
  std::size_t target_shards = static_cast<std::size_t>((record_bytes + budget - 1) / budget);
  target_shards = std::clamp<std::size_t>(target_shards, 1, config.max_shards);
  const std::uint64_t per_shard_records =
      std::max<std::uint64_t>((ledger.records_folded + target_shards - 1) / target_shards, 1);

  std::vector<ShardRange> shards;
  {
    ShardRange current;
    bool open = false;
    for (const auto& [network, count] : records_per_network) {
      if (!open) {
        current = ShardRange{network, 0};
        open = true;
      }
      current.records += count;
      if (current.records >= per_shard_records) {
        shards.push_back(current);
        open = false;
      }
    }
    if (open || shards.empty()) {
      if (!open) current = ShardRange{0, 0};
      shards.push_back(current);
    }
  }
  ledger.shards = shards.size();

  std::vector<SpillPaths> paths;
  paths.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) paths.push_back(spill_paths(prefix, i));

  // Pass B: partition the log into per-shard record spills, streaming.
  {
    std::vector<std::ofstream> streams;
    std::vector<probe::RecordWriter> writers;
    streams.reserve(shards.size());
    writers.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      streams.push_back(open_out(paths[i].records));
      writers.emplace_back(streams.back());
    }
    std::vector<std::uint32_t> firsts;
    firsts.reserve(shards.size());
    for (const ShardRange& shard : shards) firsts.push_back(shard.first_network);

    std::ifstream is = open_in(log_path);
    probe::RecordReader reader{is};
    probe::SurveyRecord record;
    while (reader.next(record)) {
      const std::uint32_t network = net::Prefix24::containing(record.address).network();
      const auto it = std::upper_bound(firsts.begin(), firsts.end(), network);
      const auto shard = static_cast<std::size_t>(it == firsts.begin() ? 0 : (it - firsts.begin() - 1));
      writers[shard].append(record);
    }
    for (probe::RecordWriter& writer : writers) writer.finish();
  }

  // Pass C: fold shards in parallel. Shards share nothing; outputs land
  // in per-shard slots, so scheduling order cannot affect the file.
  std::vector<ShardOutput> outputs(shards.size());
  {
    util::ThreadPool pool{std::max<std::size_t>(config.jobs, 1)};
    util::BlockingCounter done{shards.size()};
    for (std::size_t i = 0; i < shards.size(); ++i) {
      pool.submit([&, i] {
        try {
          outputs[i] = fold_spilled_shard(paths[i], config);
        } catch (const std::exception& e) {
          outputs[i].error = e.what();
        }
        done.count_down();
      });
    }
    done.wait();
  }
  for (const ShardOutput& output : outputs) {
    if (!output.error.empty()) {
      throw std::runtime_error("snapshot builder: shard fold failed: " + output.error);
    }
  }

  // Pass D: merge the shards in index order. Memory: one aggregate per
  // distinct AS, the matrix columns, and one shard's AS run at a time.
  Merge merge{config.snapshot};
  std::uint64_t address_total = 0;
  for (const ShardOutput& output : outputs) address_total += output.address_count;
  for (std::vector<double>& column : merge.per_address.values) {
    column.reserve(static_cast<std::size_t>(address_total));
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    merge.add(outputs[i].block_count, outputs[i].total_samples, read_spill(paths[i].as_run),
              read_spill(paths[i].columns));
  }
  ledger.total_samples = merge.total_samples;
  ledger.block_count = merge.block_count;
  ledger.as_count = merge.ases.size();
  {
    std::ofstream os = open_out(out_path);
    // Block sections stream from the shard spills in shard order: ranges
    // ascend, so concatenation is the sorted order.
    merge.write(os, [&paths](sf::Writer& writer, std::size_t i) {
      for (const SpillPaths& path : paths) concat_file(writer, path.blocks[i]);
    });
  }

  for (const SpillPaths& path : paths) remove_spills(path);

  if (config.registry != nullptr) {
    obs::Registry& registry = *config.registry;
    registry.counter("snapshot.build.records_in").inc(ledger.records_in);
    registry.counter("snapshot.build.records_folded").inc(ledger.records_folded);
    registry.counter("snapshot.build.records_skipped").inc(ledger.records_skipped);
    registry.gauge("snapshot.blocks").set_max(static_cast<std::int64_t>(ledger.block_count));
    registry.gauge("snapshot.ases").set_max(static_cast<std::int64_t>(ledger.as_count));
    registry.gauge("snapshot.total_samples")
        .set_max(static_cast<std::int64_t>(ledger.total_samples));
    registry.gauge("snapshot.shards").set_max(static_cast<std::int64_t>(ledger.shards));
  }
  return ledger;
}

}  // namespace turtle::serve
