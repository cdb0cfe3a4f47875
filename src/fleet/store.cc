#include "fleet/store.hh"

#include <algorithm>
#include <cstdio>

#include "common/env.hh"
#include "common/fs.hh"
#include "common/strutil.hh"
#include "core/runmeta.hh"

namespace wc3d::fleet {

namespace {

constexpr const char *kIndexSchema = "wc3d-fleet-index-v1";

/** The one entry kind the index records; open() refuses any other
 *  (a store holding retired "bench" or "serve" entries is rebuilt by
 *  ingesting its metrics manifests again). */
constexpr const char *kEntryKind = "metrics";

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

bool
isHex16(const std::string &s)
{
    if (s.size() != 16)
        return false;
    for (char c : s) {
        bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!ok)
            return false;
    }
    return true;
}

/**
 * Fingerprint of the knobs that shape a run's results: the config
 * object minus the run-to-run-volatile members (git moves every
 * commit, runCache hits depend on what ran before). Two runs with the
 * same config fingerprint are statistically comparable.
 */
std::string
metricsConfigFingerprint(const json::Value &doc)
{
    const json::Value *config = doc.find("config");
    if (!config || !config->isObject())
        return contentHash("");
    json::Value stable = json::Value::object();
    for (const auto &kv : config->members()) {
        if (kv.first == "git" || kv.first == "runCache")
            continue;
        stable.set(kv.first, kv.second);
    }
    return contentHash(stable.serialize(0));
}

std::vector<std::string>
metricsDemos(const json::Value &doc)
{
    std::vector<std::string> demos;
    const json::Value *runs = doc.find("runs");
    if (!runs || !runs->isArray())
        return demos;
    for (const json::Value &run : runs->items()) {
        const json::Value *id = run.find("id");
        if (!id || !id->isString())
            continue;
        if (std::find(demos.begin(), demos.end(), id->asString()) ==
            demos.end())
            demos.push_back(id->asString());
    }
    return demos;
}

IndexEntry
describeDocument(const json::Value &doc)
{
    IndexEntry e;
    const json::Value *config = doc.find("config");
    const json::Value *git = config ? config->find("git") : nullptr;
    e.git = git && git->isString() && !git->asString().empty()
                ? git->asString()
                : "unknown";
    e.host = core::hostFingerprint(doc);
    e.config = metricsConfigFingerprint(doc);
    e.demos = metricsDemos(doc);
    return e;
}

json::Value
entryToJson(const IndexEntry &e)
{
    json::Value out = json::Value::object();
    out.set("seq", json::Value::number(e.seq));
    out.set("kind", json::Value::str(kEntryKind));
    out.set("blob", json::Value::str(e.blob));
    out.set("git", json::Value::str(e.git));
    out.set("config", json::Value::str(e.config));
    out.set("host", json::Value::str(e.host));
    json::Value demos = json::Value::array();
    for (const std::string &demo : e.demos)
        demos.push(json::Value::str(demo));
    out.set("demos", std::move(demos));
    out.set("source", json::Value::str(e.source));
    return out;
}

bool
entryFromJson(const json::Value &v, IndexEntry &out,
              std::string *reason)
{
    auto bad = [&](const std::string &why) {
        if (reason)
            *reason = why;
        return false;
    };
    if (!v.isObject())
        return bad("entry is not an object");
    const json::Value *seq = v.find("seq");
    const json::Value *kind = v.find("kind");
    const json::Value *blob = v.find("blob");
    if (!seq || !seq->isNumber() || seq->asU64() == 0)
        return bad("entry.seq missing");
    if (!kind || !kind->isString())
        return bad("entry.kind missing");
    if (!blob || !blob->isString() || !isHex16(blob->asString()))
        return bad("entry.blob is not a 16-hex content hash");
    out.seq = seq->asU64();
    out.blob = blob->asString();
    if (kind->asString() != kEntryKind)
        return bad(format("entry.kind '%s' unknown",
                          kind->asString().c_str()));
    const json::Value *git = v.find("git");
    const json::Value *config = v.find("config");
    const json::Value *host = v.find("host");
    const json::Value *source = v.find("source");
    out.git = git && git->isString() ? git->asString() : "unknown";
    out.config =
        config && config->isString() ? config->asString() : "";
    out.host = host && host->isString() ? host->asString() : "unknown";
    out.source =
        source && source->isString() ? source->asString() : "";
    const json::Value *demos = v.find("demos");
    if (demos && demos->isArray()) {
        for (const json::Value &demo : demos->items()) {
            if (demo.isString())
                out.demos.push_back(demo.asString());
        }
    }
    return true;
}

} // namespace

std::string
fleetDir()
{
    return envString("WC3D_FLEET_DIR", ".wc3d-fleet");
}

std::string
contentHash(const std::string &bytes)
{
    return format("%016llx",
                  static_cast<unsigned long long>(fnv1a64(bytes)));
}

bool
validateDocument(const json::Value &doc, std::string *reason)
{
    auto bad = [&](const std::string &why) {
        if (reason)
            *reason = why;
        return false;
    };
    if (!doc.isObject())
        return bad("document is not an object");
    const json::Value *schema = doc.find("schema");
    if (!schema || !schema->isString())
        return bad("missing schema tag");
    const std::string &tag = schema->asString();
    if (tag != "wc3d-metrics-v1")
        return bad(format("unknown schema tag '%s'", tag.c_str()));
    return core::validateMetrics(doc, reason);
}

std::string
FleetStore::indexPath() const
{
    return _dir + "/index.json";
}

std::string
FleetStore::blobPath(const std::string &hash) const
{
    return _dir + "/blobs/" + hash + ".json";
}

const IndexEntry *
FleetStore::entry(std::uint64_t seq) const
{
    for (const IndexEntry &e : _entries) {
        if (e.seq == seq)
            return &e;
    }
    return nullptr;
}

bool
FleetStore::open(FleetError *err)
{
    auto fail = [&](std::string path, std::string reason) {
        if (err)
            *err = FleetError{std::move(path), std::move(reason)};
        return false;
    };
    _entries.clear();
    json::Value index;
    std::string error;
    if (!json::parseFile(indexPath(), index, &error)) {
        // An absent index is an empty store; a torn/corrupt one is not.
        std::FILE *f = std::fopen(indexPath().c_str(), "rb");
        if (!f)
            return true;
        std::fclose(f);
        return fail(indexPath(), error);
    }
    const json::Value *schema = index.find("schema");
    if (!index.isObject() || !schema || !schema->isString() ||
        schema->asString() != kIndexSchema)
        return fail(indexPath(),
                    format("missing or wrong schema tag (want '%s')",
                           kIndexSchema));
    const json::Value *entries = index.find("entries");
    if (!entries || !entries->isArray())
        return fail(indexPath(), "missing entries array");
    // Entries go live only once the whole index has parsed.
    std::vector<IndexEntry> loaded;
    std::uint64_t prev_seq = 0;
    for (std::size_t i = 0; i < entries->size(); ++i) {
        IndexEntry e;
        std::string reason;
        if (!entryFromJson(entries->at(i), e, &reason))
            return fail(indexPath(),
                        format("entry %zu: %s", i, reason.c_str()));
        if (e.seq <= prev_seq)
            return fail(indexPath(),
                        format("entry %zu: seq %llu out of order", i,
                               static_cast<unsigned long long>(e.seq)));
        prev_seq = e.seq;
        loaded.push_back(std::move(e));
    }
    _entries = std::move(loaded);
    return true;
}

bool
FleetStore::saveIndex(FleetError *err) const
{
    json::Value index = json::Value::object();
    index.set("schema", json::Value::str(kIndexSchema));
    json::Value entries = json::Value::array();
    for (const IndexEntry &e : _entries)
        entries.push(entryToJson(e));
    index.set("entries", std::move(entries));
    std::string error;
    if (!json::writeFileAtomic(indexPath(), index.serialize(1) + "\n",
                               &error)) {
        if (err)
            *err = FleetError{indexPath(), error};
        return false;
    }
    return true;
}

FleetStore::IngestResult
FleetStore::ingestDocument(const json::Value &doc,
                           const std::string &source, FleetError *err)
{
    auto fail = [&](std::string path, std::string reason) {
        if (err)
            *err = FleetError{std::move(path), std::move(reason)};
        return IngestResult::Error;
    };
    std::string reason;
    if (!validateDocument(doc, &reason))
        return fail(source, reason);

    // Content address: the canonical (compact) serialization, so the
    // same document dedupes regardless of formatting.
    std::string canonical = doc.serialize(0);
    std::string hash = contentHash(canonical);
    for (const IndexEntry &e : _entries) {
        if (e.blob == hash)
            return IngestResult::Duplicate;
    }

    if (!makeDirs(_dir + "/blobs"))
        return fail(_dir + "/blobs", "cannot create directory");
    std::string error;
    if (!json::writeFileAtomic(blobPath(hash), doc.serialize(1) + "\n",
                               &error))
        return fail(blobPath(hash), error);

    IndexEntry e = describeDocument(doc);
    e.seq = _entries.empty() ? 1 : _entries.back().seq + 1;
    e.blob = hash;
    e.source = source;
    _entries.push_back(std::move(e));
    if (!saveIndex(err)) {
        _entries.pop_back();
        return IngestResult::Error;
    }
    return IngestResult::Added;
}

FleetStore::IngestResult
FleetStore::ingestFile(const std::string &path, FleetError *err)
{
    json::Value doc;
    std::string error;
    if (!json::parseFile(path, doc, &error)) {
        if (err)
            *err = FleetError{path, error};
        return IngestResult::Error;
    }
    return ingestDocument(doc, path, err);
}

bool
FleetStore::loadEntry(const IndexEntry &e, json::Value &out,
                      FleetError *err) const
{
    auto fail = [&](std::string reason) {
        if (err)
            *err = FleetError{blobPath(e.blob), std::move(reason)};
        return false;
    };
    json::Value doc;
    std::string error;
    if (!json::parseFile(blobPath(e.blob), doc, &error))
        return fail(error);
    std::string reason;
    if (!validateDocument(doc, &reason))
        return fail(reason);
    out = std::move(doc);
    return true;
}

bool
FleetStore::check(std::vector<std::string> *problems) const
{
    auto note = [&](const std::string &what) {
        if (problems)
            problems->push_back(what);
    };
    bool clean = true;
    std::vector<std::string> referenced;
    for (const IndexEntry &e : _entries) {
        json::Value doc;
        FleetError err;
        if (!loadEntry(e, doc, &err)) {
            note(format("entry %llu: %s",
                        static_cast<unsigned long long>(e.seq),
                        err.describe().c_str()));
            clean = false;
            continue;
        }
        // The blob must still hash to its index address (bit rot,
        // hand-edited blobs).
        if (contentHash(doc.serialize(0)) != e.blob) {
            note(format("entry %llu: blob content does not match its "
                        "address %s",
                        static_cast<unsigned long long>(e.seq),
                        e.blob.c_str()));
            clean = false;
        }
        referenced.push_back(e.blob + ".json");
    }
    std::vector<std::string> names;
    if (listDir(_dir + "/blobs", names)) {
        for (const std::string &name : names) {
            if (std::find(referenced.begin(), referenced.end(),
                          name) == referenced.end()) {
                note(format("orphaned blob: blobs/%s", name.c_str()));
                clean = false;
            }
        }
    } else if (!_entries.empty()) {
        note("blobs/ directory missing");
        clean = false;
    }
    return clean;
}

bool
FleetStore::repair(std::vector<std::string> *actions, FleetError *err)
{
    auto note = [&](std::string what) {
        if (actions)
            actions->push_back(std::move(what));
    };
    auto fail = [&](std::string path, std::string reason) {
        if (err)
            *err = FleetError{std::move(path), std::move(reason)};
        return false;
    };
    std::string quarantine = _dir + "/quarantine";
    auto quarantineBlob = [&](const std::string &name) {
        if (!makeDirs(quarantine))
            return false;
        return std::rename((_dir + "/blobs/" + name).c_str(),
                           (quarantine + "/" + name).c_str()) == 0;
    };

    bool changed = false;
    std::vector<IndexEntry> kept;
    std::vector<std::string> referenced;
    for (IndexEntry &e : _entries) {
        json::Value doc;
        FleetError load;
        std::string why;
        if (!loadEntry(e, doc, &load))
            why = load.reason;
        else if (contentHash(doc.serialize(0)) != e.blob)
            why = format("blob content does not match its address %s",
                         e.blob.c_str());
        if (why.empty()) {
            referenced.push_back(e.blob + ".json");
            kept.push_back(std::move(e));
            continue;
        }
        changed = true;
        // Keep a present-but-bad blob as evidence; a missing one
        // needs only the index entry dropped.
        std::FILE *f = std::fopen(blobPath(e.blob).c_str(), "rb");
        if (f) {
            std::fclose(f);
            if (!quarantineBlob(e.blob + ".json"))
                return fail(blobPath(e.blob),
                            "cannot move blob to quarantine/");
            note(format("dropped entry %llu (%s); blob %s "
                        "quarantined",
                        static_cast<unsigned long long>(e.seq),
                        why.c_str(), e.blob.c_str()));
        } else {
            note(format("dropped entry %llu (%s)",
                        static_cast<unsigned long long>(e.seq),
                        why.c_str()));
        }
    }

    std::vector<std::string> names;
    if (listDir(_dir + "/blobs", names)) {
        for (const std::string &name : names) {
            if (std::find(referenced.begin(), referenced.end(),
                          name) != referenced.end())
                continue;
            if (!quarantineBlob(name))
                return fail(_dir + "/blobs/" + name,
                            "cannot move orphaned blob to "
                            "quarantine/");
            note(format("orphaned blob blobs/%s quarantined",
                        name.c_str()));
            changed = true;
        }
    }

    _entries = std::move(kept);
    if (changed && !saveIndex(err))
        return false;
    return true;
}

} // namespace wc3d::fleet
