/**
 * @file
 * The fleet metrics store: a content-addressed, insertion-ordered
 * on-disk database of `wc3d-metrics-v1` run manifests
 * (WC3D_METRICS_OUT). One run = one immutable blob; the index keys
 * every blob by (git describe, config fingerprint, demo set, host
 * fingerprint) so fleet-level questions — "did the texture-cache hit
 * rate drift between these two commits?" — become simple queries
 * (fleet/query.hh).
 *
 * Layout under the store directory (WC3D_FLEET_DIR, default
 * `.wc3d-fleet`):
 *
 *     index.json            wc3d-fleet-index-v1: ordered entry list;
 *                           every entry is written "kind":"metrics"
 *     blobs/<fnv64>.json    canonical serialization of each document
 *
 * Blobs are addressed by the FNV-1a 64 hash of their *canonical*
 * (compact) serialization, so re-ingesting the same document — even
 * reformatted — is a no-op, and the same index can be appended to by
 * many producers (atomic index rewrites via json::writeFileAtomic).
 *
 * Error model: the WC3DTRC2 discipline. Nothing here ever calls
 * fatal(); every failure is reported as a structured
 * FleetError{path, reason} and the store is left as it was.
 */

#ifndef WC3D_FLEET_STORE_HH
#define WC3D_FLEET_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace wc3d::fleet {

/** A structured store failure: which file, and why. */
struct FleetError
{
    std::string path;   ///< file or directory involved ("" = none)
    std::string reason;

    std::string
    describe() const
    {
        return path.empty() ? "fleet: " + reason
                            : "fleet: " + path + ": " + reason;
    }
};

/** One ingested document, as recorded in index.json. */
struct IndexEntry
{
    std::uint64_t seq = 0; ///< 1-based insertion order
    std::string blob;   ///< 16-hex content hash (blobs/<blob>.json)
    std::string git;    ///< git describe ("unknown" when absent)
    std::string config; ///< 16-hex config fingerprint
    std::string host;   ///< "hostname/NT" ("unknown" pre-v1.1)
    std::vector<std::string> demos; ///< demo ids covered by the run
    std::string source; ///< where it was ingested from (informational)
};

class FleetStore
{
  public:
    explicit FleetStore(std::string dir) : _dir(std::move(dir)) {}

    const std::string &dir() const { return _dir; }

    /**
     * Load index.json (an absent index is an empty store, not an
     * error — the directory is created on first ingest).
     * @return false with @p err on a corrupt index.
     */
    bool open(FleetError *err);

    enum class IngestResult
    {
        Added,
        Duplicate, ///< identical content already in the store
        Error,
    };

    /** Parse, validate and store one manifest file. */
    IngestResult ingestFile(const std::string &path, FleetError *err);

    /** Same, for an already-parsed document. @p source is
     *  informational. */
    IngestResult ingestDocument(const json::Value &doc,
                                const std::string &source,
                                FleetError *err);

    /** Index entries, insertion order. */
    const std::vector<IndexEntry> &entries() const { return _entries; }

    /** Entry with 1-based sequence number @p seq, or nullptr. */
    const IndexEntry *entry(std::uint64_t seq) const;

    /** Load and re-validate the document behind @p e. */
    bool loadEntry(const IndexEntry &e, json::Value &out,
                   FleetError *err) const;

    /**
     * Index consistency: every indexed blob resolves, parses and
     * passes schema validation; no orphaned blob files.
     * @return true when clean; otherwise appends one line per problem
     * to @p problems (when non-null).
     */
    bool check(std::vector<std::string> *problems) const;

    /**
     * Bring an inconsistent store back to a state check() accepts:
     * index entries whose blobs are missing, unparsable, invalid or
     * no longer hash to their address are dropped (a present-but-bad
     * blob is moved to <dir>/quarantine/ as evidence, never deleted),
     * and orphaned blob files are quarantined the same way. Surviving
     * entries keep their sequence numbers; the index is rewritten
     * atomically only when something changed. One line per action is
     * appended to @p actions (when non-null).
     * @return false with @p err on an I/O failure mid-repair.
     */
    bool repair(std::vector<std::string> *actions, FleetError *err);

    std::string indexPath() const;
    std::string blobPath(const std::string &hash) const;

  private:
    bool saveIndex(FleetError *err) const;

    std::string _dir;
    std::vector<IndexEntry> _entries;
};

/** The store directory: WC3D_FLEET_DIR, or ".wc3d-fleet". */
std::string fleetDir();

/** FNV-1a 64-bit over @p bytes, as 16 lowercase hex digits. */
std::string contentHash(const std::string &bytes);

/**
 * Check that @p doc is a structurally valid wc3d-metrics-v1 manifest.
 * @return false with @p reason for unknown tags or invalid documents.
 */
bool validateDocument(const json::Value &doc, std::string *reason);

} // namespace wc3d::fleet

#endif // WC3D_FLEET_STORE_HH
