//===- engine/ResultCache.cpp - Persistent content-addressed cache ----------===//

#include "engine/ResultCache.h"

#include "engine/Serialization.h"

#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sys/stat.h>
#include <system_error>
#include <unistd.h>

using namespace sct;

namespace {

/// Entry file magic: "SCTC" little-endian.
constexpr uint32_t CacheMagic = 0x43544353;

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Reads all of \p Path into \p Out with one read sized by fstat (an
/// entry is renamed into place whole, so its size is final); false when
/// the file cannot be opened or comes up short.
bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  struct stat St {};
  bool Ok = ::fstat(Fd, &St) == 0;
  if (Ok) {
    Out.resize(static_cast<size_t>(St.st_size));
    size_t Done = 0;
    while (Ok && Done < Out.size()) {
      ssize_t N = ::read(Fd, Out.data() + Done, Out.size() - Done);
      if (N < 0 && errno == EINTR)
        continue;
      Ok = N > 0;
      if (Ok)
        Done += static_cast<size_t>(N);
    }
  }
  ::close(Fd);
  return Ok;
}

} // namespace

ResultCache::ResultCache(std::string Dir) : Directory(std::move(Dir)) {
  std::error_code EC;
  std::filesystem::create_directories(Directory, EC);
  Usable = !EC && std::filesystem::is_directory(Directory, EC) && !EC;
}

bool sct::cacheable(const CheckRequest &Req) {
  return !Req.Init;
}

std::optional<ResultCache::Key>
ResultCache::keyFor(const CheckRequest &Req, const PassConfig &Passes) {
  if (!cacheable(Req))
    return std::nullopt;
  Key K;
  K.ProgHash = programHash(Req.Prog);
  K.OptsFp = optionsFingerprint(Req.Opts, Req.MOpts, Passes);
  return K;
}

std::string ResultCache::entryPath(const Key &K) const {
  return Directory + "/" + hex16(K.ProgHash) + "-" + hex16(K.OptsFp) +
         ".sctr";
}

std::optional<CheckResult> ResultCache::lookup(const Key &K) const {
  auto Miss = [&]() -> std::optional<CheckResult> {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };

  std::vector<uint8_t> Bytes;
  if (!readFile(entryPath(K), Bytes))
    return Miss();

  ByteReader R(Bytes);
  if (R.u32() != CacheMagic || R.u32() != SerializationFormatVersion)
    return Miss();
  // Key echo: guards against a renamed/misfiled entry (the filename is
  // not trusted) — and doubles as the collision check for the address.
  if (R.u64() != K.ProgHash || R.u64() != K.OptsFp)
    return Miss();
  std::span<const uint8_t> Payload = R.view(R.count(1));
  uint64_t Checksum = R.u64();
  if (!R.done() || Checksum != hashBytes(Payload))
    return Miss();

  std::optional<CheckResult> Res = deserializeCheckResult(Payload);
  if (!Res)
    return Miss();
  Hits.fetch_add(1, std::memory_order_relaxed);
  return Res;
}

bool ResultCache::store(const Key &K, const CheckResult &Res) const {
  std::vector<uint8_t> Payload = serializeCheckResult(Res);

  ByteWriter W;
  W.u32(CacheMagic);
  W.u32(SerializationFormatVersion);
  W.u64(K.ProgHash);
  W.u64(K.OptsFp);
  W.u64(Payload.size());
  W.bytes(Payload);
  W.u64(hashBytes(Payload));

  // tmp + rename: a concurrent reader sees the old entry, the new entry,
  // or no entry — never a torn one.  The tmp name carries the pid plus
  // the key so concurrent sessions (and concurrent stores of different
  // keys in one session) never collide on the scratch file either.
  std::string Final = entryPath(K);
  std::string Tmp = Directory + "/tmp-" + std::to_string(::getpid()) + "-" +
                    hex16(K.ProgHash) + "-" + hex16(K.OptsFp);
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(W.buffer().data()),
              static_cast<std::streamsize>(W.size()));
    if (!Out.good())
      return false;
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Final, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  Stores.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<CheckResult>
ResultCache::lookupResult(const CheckRequest &Req,
                          const PassConfig &Passes) const {
  std::optional<Key> K = keyFor(Req, Passes);
  if (!K)
    return std::nullopt;
  return lookup(*K);
}

bool ResultCache::storeResult(const CheckRequest &Req,
                              const PassConfig &Passes,
                              const CheckResult &Res) const {
  std::optional<Key> K = keyFor(Req, Passes);
  if (!K)
    return false;
  return store(*K, Res);
}
