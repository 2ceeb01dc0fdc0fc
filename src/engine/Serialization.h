//===- engine/Serialization.h - Binary cache format ------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary serialization layer behind the audit service: Programs,
/// option structs (ExplorerOptions / MachineOptions / PassConfig), and
/// whole CheckResults (leak records with their raw and minimized
/// schedules, SPS reports, minimization stats) round-trip exactly through
/// a versioned little-endian format (support/ByteStream.h).  Its consumer
/// is the persistent ResultCache (engine/ResultCache.h), which names
/// entries by `programHash` + `optionsFingerprint` and stores serialized
/// CheckResults on disk.
///
/// **Exactness.**  deserialize(serialize(x)) reproduces x field-by-field:
/// Programs rebuild through ProgramBuilder's raw() path (which preserves
/// every instruction field including pre-resolved successors), and
/// re-serializing the round-tripped value yields byte-identical output —
/// the property tests/SerializationTest.cpp holds over the random-program
/// generator.  A request with a custom `Init` is not `cacheable()` and
/// never reaches the cache.
///
/// **Versioning.**  Every top-level payload starts with
/// `SerializationFormatVersion`; readers reject other versions (a
/// stale cache entry is a miss, not a misparse).  Any format change —
/// field added, width changed, order moved — must bump the version.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ENGINE_SERIALIZATION_H
#define SCT_ENGINE_SERIALIZATION_H

#include "engine/CheckSession.h"
#include "support/ByteStream.h"

namespace sct {

/// Bump on any cache format change.
inline constexpr uint32_t SerializationFormatVersion = 5;

/// Field-level writers/readers (no version header; compose into the
/// top-level payloads below).  Readers return false / disengaged on
/// malformed input and never read out of bounds.
void writeProgram(ByteWriter &W, const Program &P);
std::optional<Program> readProgram(ByteReader &R);

void writeExplorerOptions(ByteWriter &W, const ExplorerOptions &O);
bool readExplorerOptions(ByteReader &R, ExplorerOptions &O);

void writeMachineOptions(ByteWriter &W, const MachineOptions &O);
bool readMachineOptions(ByteReader &R, MachineOptions &O);

void writePassConfig(ByteWriter &W, const PassConfig &P);
bool readPassConfig(ByteReader &R, PassConfig &P);

void writeCheckResult(ByteWriter &W, const CheckResult &Res);
bool readCheckResult(ByteReader &R, CheckResult &Res);

/// Canonical content hash of a program: a 64-bit hash over its
/// serialized bytes, so two programs hash equal iff every instruction,
/// register name, region, init, label, and the entry point agree.
uint64_t programHash(const Program &P);

/// Normalized fingerprint of everything that determines a check's
/// *outcome*: explorer options (with the thread count zeroed — the
/// engine's determinism contract makes the leak set independent of it),
/// machine options, and the resolved PassConfig.
/// Includes the format version, so a format bump invalidates old cache
/// entries wholesale.  docs/ARCHITECTURE.md states the completeness
/// invariant: every behavior-affecting option must be in here.
uint64_t optionsFingerprint(const ExplorerOptions &EOpts,
                            const MachineOptions &MOpts,
                            const PassConfig &Passes);

/// Top-level result payload (version header included).
std::vector<uint8_t> serializeCheckResult(const CheckResult &Res);
std::optional<CheckResult>
deserializeCheckResult(std::span<const uint8_t> Payload);

/// 64-bit content hash of a byte buffer (hashCombine-chained words).
uint64_t hashBytes(std::span<const uint8_t> Bytes);

} // namespace sct

#endif // SCT_ENGINE_SERIALIZATION_H
