//===- engine/ResultCache.h - Persistent content-addressed cache -*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of the audit service: a directory of serialized
/// CheckResults, content-addressed by what determines a check's outcome —
/// the canonical program hash and the normalized options fingerprint
/// (engine/Serialization.h).  `CheckSession::checkMany` consults it before
/// exploring, so re-auditing an unchanged corpus is pure lookups and a
/// changed corpus only re-explores the changed cases.
///
/// **Entry format.**  One file per key, `<proghash>-<optsfp>.sctr`, laid
/// out as: magic, format version, both key halves echoed, a length-prefixed
/// serialized CheckResult payload, and a trailing content checksum.  A
/// lookup validates all of it; any mismatch — stale version, key echo
/// disagreement (a hash-collision guard against the filename), truncation,
/// bit rot — is a plain miss, never an error.  Entries are written to a
/// `tmp-<pid>-...` sibling and `rename`d into place, so concurrent
/// sessions sharing a cache directory see complete entries or none.
///
/// **What is cacheable.**  Exactly the `cacheable()` requests: a custom
/// initial configuration makes a check's outcome depend on state the key
/// cannot see, so those requests bypass the cache wholesale.  The dual
/// obligation — every behavior-affecting *option* must be in the
/// fingerprint — is the cache-key completeness invariant documented in
/// docs/ARCHITECTURE.md.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ENGINE_RESULTCACHE_H
#define SCT_ENGINE_RESULTCACHE_H

#include "engine/CheckSession.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace sct {

/// True iff \p Req's outcome is a function of what the cache key sees:
/// no custom initial configuration.
bool cacheable(const CheckRequest &Req);

/// Persistent content-addressed store of CheckResults.
class ResultCache {
public:
  /// The two-part content address of an entry.
  struct Key {
    uint64_t ProgHash = 0; ///< programHash(Req.Prog)
    uint64_t OptsFp = 0;   ///< optionsFingerprint(Opts, MOpts, Passes)
  };

  /// Opens (creating if needed) the cache rooted at \p Dir.  Check ok().
  explicit ResultCache(std::string Dir);

  /// False when the directory could not be created; the session then runs
  /// uncached.
  bool ok() const { return Usable; }
  const std::string &dir() const { return Directory; }

  /// The content address of \p Req under resolved passes \p Passes, or
  /// nullopt for requests whose outcome the key cannot capture (custom
  /// Init — see cacheable()).
  static std::optional<Key> keyFor(const CheckRequest &Req,
                                   const PassConfig &Passes);

  /// Raw entry access: the validated payload's deserialized CheckResult,
  /// or nullopt on miss/corruption (a corrupt entry is counted as a miss).
  std::optional<CheckResult> lookup(const Key &K) const;

  /// Atomically stores \p Res under \p K (tmp file + rename).  Returns
  /// false on I/O failure; the cache stays usable either way.
  bool store(const Key &K, const CheckResult &Res) const;

  /// Conveniences fusing keyFor with lookup/store; no-ops (miss / false)
  /// on uncacheable requests.
  std::optional<CheckResult> lookupResult(const CheckRequest &Req,
                                          const PassConfig &Passes) const;
  bool storeResult(const CheckRequest &Req, const PassConfig &Passes,
                   const CheckResult &Res) const;

  /// Session-lifetime counters (lookups that found a valid entry, lookups
  /// that did not, successful stores).
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t stores() const { return Stores.load(std::memory_order_relaxed); }

private:
  std::string entryPath(const Key &K) const;

  std::string Directory;
  bool Usable = false;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Misses{0};
  mutable std::atomic<uint64_t> Stores{0};
};

} // namespace sct

#endif // SCT_ENGINE_RESULTCACHE_H
