#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "daemon/proto.h"
#include "net/ipv4.h"
#include "probe/records.h"
#include "util/prng.h"

namespace turtlebench {

using turtle::SimTime;

namespace {

turtle::net::Prefix24 block_prefix(int block) {
  return turtle::net::Prefix24::from_network((10u << 16) + static_cast<std::uint32_t>(block));
}

}  // namespace

std::uint64_t synthesize_log(const std::string& path, const SurveyShape& shape,
                             std::uint64_t seed) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os.good()) throw std::runtime_error("cannot open log path " + path);
  turtle::probe::RecordWriter writer{os};
  turtle::util::Prng rng{seed};
  turtle::util::Prng base_rng = rng.fork(1);
  turtle::util::Prng jitter_rng = rng.fork(2);
  // Median ~80 ms with a heavy right tail, so blocks, ASes and the global
  // matrix all give distinct answers.
  std::vector<double> base_s(static_cast<std::size_t>(shape.blocks));
  for (double& base : base_s) base = std::min(20.0, 0.08 * base_rng.lognormal(0, 1.2));
  for (int round = 0; round < shape.rounds; ++round) {
    std::int64_t slot = 0;
    for (int b = 0; b < shape.blocks; ++b) {
      const auto prefix = block_prefix(b);
      for (int a = 1; a <= shape.addrs; ++a, ++slot) {
        turtle::probe::SurveyRecord record;
        record.type = turtle::probe::RecordType::kMatched;
        record.address = prefix.address(static_cast<std::uint8_t>(a));
        record.probe_time = SimTime::seconds(round * 660) + SimTime::micros(slot);
        const double rtt_s =
            base_s[static_cast<std::size_t>(b)] * (0.8 + 0.6 * jitter_rng.uniform());
        record.rtt = SimTime::from_seconds(rtt_s);
        record.round = static_cast<std::uint32_t>(round);
        writer.append(record);
      }
    }
  }
  writer.finish();
  if (!os.good()) throw std::runtime_error("write to log path " + path + " failed");
  return writer.written();
}

std::unique_ptr<turtle::hosts::GeoDatabase> make_geo(const turtle::hosts::AsCatalog& catalog,
                                                     const SurveyShape& shape,
                                                     std::uint64_t seed) {
  auto geo = std::make_unique<turtle::hosts::GeoDatabase>(&catalog);
  turtle::util::Prng rng{seed};
  for (int b = 0; b < shape.blocks; ++b) {
    geo->add_block(block_prefix(b), static_cast<std::uint32_t>(rng.uniform_int(catalog.size())));
  }
  return geo;
}

QueryStream make_query_stream(const SurveyShape& shape, const QueryMix& mix,
                              std::size_t length, std::uint64_t seed) {
  turtle::util::Prng rng{seed};
  // Zipf popularity over a seeded permutation of the blocks, so the hot
  // blocks are not simply the lowest-numbered ones.
  std::vector<int> rank_to_block(static_cast<std::size_t>(shape.blocks));
  for (int b = 0; b < shape.blocks; ++b) rank_to_block[static_cast<std::size_t>(b)] = b;
  turtle::util::Prng perm_rng = rng.fork(1);
  for (std::size_t i = rank_to_block.size(); i > 1; --i) {
    std::swap(rank_to_block[i - 1], rank_to_block[perm_rng.uniform_int(i)]);
  }
  std::vector<double> cdf;
  if (mix.zipf_s > 0) {
    double total = 0;
    for (int r = 1; r <= shape.blocks; ++r) {
      total += std::pow(static_cast<double>(r), -mix.zipf_s);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }

  // A request is (block, address, scope); the pool keeps the first
  // occurrence of each, in stream order.
  QueryStream stream;
  std::vector<std::int32_t> index(static_cast<std::size_t>(shape.blocks * shape.addrs) * 3, -1);
  turtle::util::Prng draw = rng.fork(2);
  stream.order.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    std::size_t rank = 0;
    if (cdf.empty()) {
      rank = draw.uniform_int(static_cast<std::uint64_t>(shape.blocks));
    } else {
      rank = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), draw.uniform()) -
                                      cdf.begin());
      rank = std::min(rank, cdf.size() - 1);
    }
    const int block = rank_to_block[rank];
    const int addr = 1 + static_cast<int>(draw.uniform_int(static_cast<std::uint64_t>(shape.addrs)));
    const double u = draw.uniform();
    const int scope = u < mix.global_share ? 2 : u < mix.global_share + mix.as_share ? 1 : 0;
    std::int32_t& slot =
        index[(static_cast<std::size_t>(block * shape.addrs + addr - 1)) * 3 +
              static_cast<std::size_t>(scope)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(stream.pool.size());
      std::string line = "QUERY ";
      line += block_prefix(block).address(static_cast<std::uint8_t>(addr)).to_string();
      if (scope == 2) {
        line += " scope=global";
      } else if (scope == 1) {
        line += " scope=as";
      } else if (mix.explicit_block_scope) {
        line += " scope=block";
      }
      stream.pool.push_back(std::move(line));
    }
    stream.order.push_back(static_cast<std::uint32_t>(slot));
  }
  return stream;
}

std::vector<std::string> expected_answers(const turtle::serve::OracleSnapshot& snapshot,
                                          const std::vector<std::string>& pool) {
  std::vector<std::string> out;
  out.reserve(pool.size());
  for (const std::string& line : pool) {
    turtle::daemon::proto::ParseError error{};
    const auto parsed = turtle::daemon::proto::parse_request(line, error);
    if (!parsed.has_value()) throw std::logic_error("generated an unparsable query: " + line);
    const turtle::serve::Request& q = parsed->query;
    out.push_back(turtle::daemon::proto::format_query_response(
        snapshot.lookup(q.addr, q.addr_coverage, q.ping_coverage, q.min_scope)));
  }
  return out;
}

}  // namespace turtlebench
