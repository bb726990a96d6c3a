#include "worlds.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>

#include "pdms/gen/workload.h"

namespace perfbench {

namespace {

// The worlds never depend on --seed (see worlds.h).
constexpr uint64_t kCatalogSeed = 1;
constexpr uint64_t kFactsSeed = 1;

template <typename T>
T OrDie(pdms::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

}  // namespace

pdms::PdmsNetwork Figure3Catalog() {
  pdms::gen::WorkloadConfig config;
  config.num_peers = 48;
  config.num_strata = 4;
  config.definitional_fraction = 0.25;
  config.providers_per_relation = 2;
  config.facts_per_stored = 0;
  config.value_domain = kValueDomain;
  config.seed = kCatalogSeed;
  return OrDie(pdms::gen::GenerateWorkload(config), "Figure-3 catalog")
      .network;
}

pdms::gen::Topology CommunityTopology() {
  pdms::gen::TopologyConfig config;
  config.kind = pdms::gen::TopologyConfig::Kind::kCommunity;
  config.num_peers = 48;
  config.num_communities = 4;
  config.levels = 2;
  config.replicas = 1;
  config.facts_per_stored = 0;
  config.value_domain = kValueDomain;
  config.seed = kCatalogSeed;
  return OrDie(pdms::gen::GenerateTopology(config), "community topology");
}

pdms::Database Facts(const pdms::PdmsNetwork& network) {
  pdms::Database data;
  pdms::Rng rng(kFactsSeed);
  for (const std::string& name : network.StoredRelationNames()) {
    size_t arity = OrDie(network.RelationArity(name), "stored arity");
    if (!data.CreateRelation(name, arity).ok()) continue;
    for (size_t i = 0; i < kFactsPerStored; ++i) {
      pdms::Tuple tuple;
      tuple.reserve(arity);
      for (size_t k = 0; k < arity; ++k) {
        tuple.push_back(
            pdms::Value::Int(rng.UniformInt(0, kValueDomain - 1)));
      }
      data.Insert(name, std::move(tuple));
    }
  }
  return data;
}

std::string SingleAtomQuery(const std::string& relation) {
  return "Q(x, y) :- " + relation + "(x, y).";
}

std::vector<std::string> SingleAtomQueries(const char* const* pool) {
  std::vector<std::string> queries;
  for (size_t q = 0; q < kPoolSize; ++q) {
    queries.push_back(SingleAtomQuery(pool[q]));
  }
  return queries;
}

size_t PassIndex(uint64_t seed, size_t request) {
  std::vector<size_t> order(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) order[i] = i;
  pdms::Rng rng(SubSeed(seed, 0x5eed0000 + request / kPoolSize));
  for (size_t i = kPoolSize; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order[request % kPoolSize];
}

std::vector<size_t> ZipfBlock(size_t n, double s, size_t count,
                              uint64_t seed) {
  std::vector<double> share(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    share[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    total += share[i];
  }
  std::vector<size_t> counts(n);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    double exact = count * share[i] / total;
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - counts[i], i});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (size_t k = 0; assigned < count; ++k, ++assigned) {
    ++counts[remainders[k % n].second];
  }
  std::vector<size_t> block;
  for (size_t i = 0; i < n; ++i) block.insert(block.end(), counts[i], i);
  pdms::Rng rng(seed);
  for (size_t i = block.size(); i > 1; --i) {
    std::swap(block[i - 1], block[rng.Uniform(i)]);
  }
  return block;
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  pdms::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ tag);
  return rng.Next();
}

}  // namespace perfbench
