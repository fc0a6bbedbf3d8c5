/**
 * @file
 * The evaluation dataset registry (Table II of the paper) and synthetic
 * generators standing in for the original corpora.
 *
 * The paper evaluates on ANN-Benchmarks feature sets (deep1b, mnist,
 * gist, glove, ...), Stanford 3-D scans, an Abacus cosmology snapshot
 * and Rodinia B+tree key sets. None of those are available offline, so
 * each dataset is replaced by a deterministic synthetic generator that
 * preserves its *dimension, distance metric, and clustering character*,
 * with point counts scaled to simulator-friendly sizes (see DESIGN.md
 * section 5 for the substitution table). The library reads each
 * dataset from a per-process store (datasetPoints, datasetKeys) that
 * runs its generator once.
 */

#ifndef HSU_WORKLOADS_DATASETS_HH
#define HSU_WORKLOADS_DATASETS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "structures/graph.hh" // Metric
#include "structures/pointset.hh"

namespace hsu
{

/** Dataset identifiers (Table II rows). */
enum class DatasetId : std::uint8_t
{
    Deep1b,
    FashionMnist,
    Mnist,
    Gist,
    Glove,
    LastFm,
    NyTimes,
    Sift1m,
    Sift10k,
    Random10k,
    Bunny,
    Dragon,
    Buddha,
    Cosmos,
    BTree1m,
    BTree10k,
};

/** Structural category of a dataset. */
enum class DatasetKind : std::uint8_t
{
    HighDim, //!< ANN feature vectors (GGNN workloads)
    Point3d, //!< 3-D point clouds (FLANN / BVH-NN workloads)
    Keys,    //!< 1-D integer keys (B+tree workload)
};

/** Registry entry for one dataset. */
struct DatasetInfo
{
    DatasetId id;
    std::string abbr;      //!< paper abbreviation ("D1B", "FMNT", ...)
    std::string paperName; //!< original corpus name
    unsigned dim;
    std::size_t paperPoints; //!< size in the paper
    std::size_t simPoints;   //!< scaled size used here
    Metric metric;           //!< distance used during search
    DatasetKind kind;
    std::uint64_t seed;      //!< generator seed (deterministic)
};

/** The full Table II registry in paper order. */
const std::vector<DatasetInfo> &allDatasets();

/** Registry lookup by id. */
const DatasetInfo &datasetInfo(DatasetId id);

/** All datasets of one kind (e.g. the GGNN evaluation set). */
std::vector<DatasetInfo> datasetsOfKind(DatasetKind kind);

/** Generate the dataset's points. @pre kind != Keys. */
PointSet generatePoints(const DatasetInfo &info);

/**
 * Generate @p count query points for a dataset: a deterministic mix of
 * perturbed data points and fresh draws from the same distribution.
 */
PointSet generateQueries(const DatasetInfo &info, std::size_t count);

/** Generate the key set for a Keys dataset (sorted, unique). */
std::vector<std::uint32_t> generateKeys(const DatasetInfo &info);

/**
 * Generate @p count lookup keys: ~80% present in the key set, the rest
 * uniform misses.
 */
std::vector<std::uint32_t> generateKeyQueries(const DatasetInfo &info,
                                              std::size_t count);

/**
 * The dataset store: dataset @p id's points, generated once per process
 * (generatePoints, on first use from any thread) and kept for the
 * process's lifetime at one address. Every index slice, the partitioner
 * and the answer checks read this copy; kernels may hold references
 * into it. @pre the dataset's kind is not Keys.
 */
const PointSet &datasetPoints(DatasetId id);

/** Keys flavor of datasetPoints(): generateKeys once per process.
 *  @pre the dataset's kind is Keys. */
const std::vector<std::uint32_t> &datasetKeys(DatasetId id);

} // namespace hsu

#endif // HSU_WORKLOADS_DATASETS_HH
