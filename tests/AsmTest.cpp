//===- tests/AsmTest.cpp - Assembler, printer, builder, validation ----------===//

#include "engine/Serialization.h"
#include "isa/AsmParser.h"
#include "isa/AsmPrinter.h"
#include "isa/ProgramBuilder.h"

#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SpectreSuites.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace sct;

namespace {

//===----------------------------------------------------------------------===//
// Parser basics
//===----------------------------------------------------------------------===//

TEST(AsmParser, ParsesEveryStatementForm) {
  ParseResult R = parseAsm(R"(
    ; comment and # comment styles
    .reg ra rb          # trailing comment
    .init ra 0x40
    .init rsp 0x20
    .region stack 0x18 9 public
    .region key 0x50 4 secret 3
    .data 0x50 1 2 3 4
    .entry start
    start:
      ra = mov 1
      rb = add ra, -1
      rb = select ra, rb, 0
      br ult ra, 4 -> start, next
    next:
      jmp next2
    next2:
      rb = load [0x40, ra]
      store rb, [ra]
      jmpi [ra, 2]
      call fn
      fence
    fn:
      ret
  )");
  ASSERT_TRUE(R.ok()) << R.errorText();
  const Program &P = *R.Prog;
  EXPECT_EQ(P.size(), 11u);
  EXPECT_EQ(P.entry(), 0u);
  EXPECT_EQ(P.regionByName("key")->RegionLabel, Label::secret(3));
  EXPECT_TRUE(P.validate().empty());
}

TEST(AsmParser, NegativeNumbersAreTwosComplement) {
  ParseResult R = parseAsm(R"(
    .reg ra
    start:
      ra = add ra, -1
  )");
  ASSERT_TRUE(R.ok()) << R.errorText();
  EXPECT_EQ(R.Prog->at(0).args()[1].getImm(), ~uint64_t(0));
}

TEST(AsmParser, LabelImmediatesResolveForward) {
  ParseResult R = parseAsm(R"(
    .reg ra
    .init ra @target
    .data 0x40 @target
    start:
      jmpi [ra]
    target:
      ra = mov 0
  )");
  ASSERT_TRUE(R.ok()) << R.errorText();
  EXPECT_EQ(R.Prog->regInits()[0].second, 1u);
  EXPECT_EQ(R.Prog->memInits()[0].second, 1u);
}

struct BadInput {
  const char *Source;
  const char *ExpectInMessage;
  unsigned Line = 0; ///< The first error's line, when nonzero.
};

class AsmParserErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(AsmParserErrors, ReportsWithLineNumbers) {
  ParseResult R = parseAsm(GetParam().Source);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.errorText().find(GetParam().ExpectInMessage),
            std::string::npos)
      << R.errorText();
  if (GetParam().Line) {
    EXPECT_EQ(R.Errors.front().Line, GetParam().Line) << R.errorText();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AsmParserErrors,
    ::testing::Values(
        BadInput{"start:\n  rz = mov 1\n", "unknown instruction or register"},
        BadInput{".reg ra\nstart:\n  ra = bogus 1\n", "unknown opcode"},
        BadInput{".reg ra\nstart:\n  ra = add 1\n", "operand count"},
        BadInput{".reg ra\nstart:\n  br ult ra -> a, b\n",
                 "unknown code label"},
        BadInput{".reg ra\na:\n  ra = mov 1\na:\n  ra = mov 2\n",
                 "duplicate code label"},
        BadInput{".region k 0x40 4 hidden\nstart:\n  fence\n",
                 "public' or 'secret"},
        BadInput{".reg ra\nstart:\n  ra = load [ ]\n", "empty address"},
        BadInput{".bogus 1\nstart:\n  fence\n", "unknown directive"},
        BadInput{".init rz 4\nstart:\n  fence\n", "unknown register"},
        BadInput{".reg ra\nstart:\n  jmp nowhere\n", "unknown code label"},
        BadInput{".reg ra\nstart:\n  ra = mov 1 2\n", "trailing tokens"},
        BadInput{".region a 0x40 4 public\n.region b 0x42 4 public\n"
                 "start:\n  fence\n",
                 "overlap"},
        // A numeral is all digits of its base and fits in 64 bits.
        BadInput{".reg r0\nstart:\n  r0 = mov 12abc\n",
                 "malformed number '12abc'", 3},
        BadInput{".reg r0\nstart:\n  r0 = mov 0x\n",
                 "malformed number '0x'", 3},
        BadInput{".reg r0\nstart:\n  r0 = mov 0x1ffffffffffffffff\n",
                 "number '0x1ffffffffffffffff' does not fit in 64 bits", 3},
        BadInput{".reg r0\nstart:\n  r0 = mov 99999999999999999999999\n",
                 "does not fit in 64 bits", 3},
        BadInput{".reg r0\n.init r0 5 7\nstart:\n  fence\n",
                 "trailing tokens after directive", 2},
        BadInput{".region pub 0x40 4 public extra\nstart:\n  fence\n",
                 "trailing tokens after directive", 1},
        // Forward references resolve at the end, but errors keep source
        // order: the unknown label on line 3 comes before line 4's error.
        BadInput{".reg ra\nstart:\n  br ult ra, 1 -> nowhere, start\n"
                 "  ra = bogus 1\n",
                 "unknown code label 'nowhere'", 3},
        BadInput{".reg ra\n  jmp later 7\nlater:\n  fence\n",
                 "trailing tokens after instruction", 2}));

//===----------------------------------------------------------------------===//
// Printer round-trips
//===----------------------------------------------------------------------===//

TEST(AsmPrinter, RoundTripsAllWorkloads) {
  std::vector<Program> Programs;
  for (const FigureCase &C : allFigures())
    Programs.push_back(C.Prog);
  for (const SuiteCase &C : kocherCases())
    Programs.push_back(C.Prog);
  for (const SuiteCase &C : kocherOriginalCases())
    Programs.push_back(C.Prog);
  for (const SuiteCase &C : spectreV11Cases())
    Programs.push_back(C.Prog);
  for (const SuiteCase &C : spectreV4Cases())
    Programs.push_back(C.Prog);
  for (const SuiteCase &C : cryptoCases())
    Programs.push_back(C.Prog);

  for (const Program &P : Programs) {
    std::string Once = printAsm(P);
    ParseResult R = parseAsm(Once);
    ASSERT_TRUE(R.ok()) << Once << "\n" << R.errorText();
    EXPECT_EQ(printAsm(*R.Prog), Once);
    EXPECT_EQ(R.Prog->size(), P.size());
    EXPECT_EQ(R.Prog->entry(), P.entry());
  }
}

/// Generator options with every construct on.
RandomProgramOptions everyConstruct() {
  RandomProgramOptions Opts;
  Opts.WithCalls = true;
  Opts.WithJumpI = true;
  Opts.WithLoops = true;
  Opts.WithTableLoads = true;
  return Opts;
}

TEST(AsmPrinter, RoundTripsRandomPrograms) {
  unsigned WithJumpI = 0;
  for (uint64_t Seed = 0; Seed < 600; ++Seed) {
    Program P = randomProgram(Seed, everyConstruct());
    std::string Text = printAsm(P);
    ParseResult R = parseAsm(Text);
    ASSERT_TRUE(R.ok()) << Text << "\n" << R.errorText();
    EXPECT_EQ(programHash(*R.Prog), programHash(P)) << Text;
    EXPECT_EQ(printAsm(*R.Prog), Text);
    WithJumpI += std::any_of(P.text().begin(), P.text().end(),
                             [](const Instruction &I) {
                               return I.is(InstrKind::JumpI);
                             });
  }
  EXPECT_GT(WithJumpI, 0u) << "the generator never emitted a jmpi";
}

TEST(AsmPrinter, InventedLabelsAvoidRealOnes) {
  // A real label `pc1` at point 2 and a jump to unlabelled point 1: the
  // pseudo-label printed for point 1 must not be `pc1` too.
  ProgramBuilder B;
  Reg Ra = B.reg("ra");
  B.raw(Instruction::makeBranch(Opcode::True, {}, 1, 1));
  B.movi(Ra, 1);
  B.label("pc1").movi(Ra, 2);
  B.jmp("pc1");
  Program P = B.build();
  ASSERT_TRUE(P.validate().empty());
  EXPECT_EQ(printInstruction(P, 0), "jmp pc1_");

  std::string Text = printAsm(P);
  ParseResult R = parseAsm(Text);
  ASSERT_TRUE(R.ok()) << Text << "\n" << R.errorText();
  const Program &Q = *R.Prog;
  ASSERT_EQ(Q.size(), P.size());
  EXPECT_EQ(Q.at(0).trueTarget(), 1u) << Text;
  EXPECT_EQ(Q.at(3).trueTarget(), 2u) << Text;
  EXPECT_EQ(Q.codeLabels().at("pc1"), 2u);
  EXPECT_EQ(printAsm(Q), Text);
  // Q carries the invented label, so from Q on the round trip is exact.
  ParseResult Again = parseAsm(printAsm(Q));
  ASSERT_TRUE(Again.ok()) << Again.errorText();
  EXPECT_EQ(programHash(*Again.Prog), programHash(Q));
}

//===----------------------------------------------------------------------===//
// Builder behaviours
//===----------------------------------------------------------------------===//

TEST(ProgramBuilder, ForwardLabelsAndFallthroughSuccessors) {
  ProgramBuilder B;
  Reg Ra = B.reg("ra");
  B.br(Opcode::True, {}, "later", "later");
  B.movi(Ra, 1);
  B.label("later").movi(Ra, 2);
  Program P = B.build();
  EXPECT_EQ(P.at(0).trueTarget(), 2u);
  EXPECT_EQ(P.at(1).next(), 2u);
  EXPECT_EQ(P.codeLabels().at("later"), 2u);
}

TEST(ProgramBuilder, ReservedRegistersAlwaysPresent) {
  ProgramBuilder B;
  Program P = B.build();
  EXPECT_EQ(P.numRegs(), 2u);
  EXPECT_EQ(P.regName(Reg::sp()), "rsp");
  EXPECT_EQ(P.regName(Reg::tmp()), "rtmp");
  EXPECT_EQ(P.regByName("rsp"), Reg::sp());
}

TEST(ProgramValidate, CatchesOutOfRangeTargets) {
  ProgramBuilder B;
  B.reg("ra");
  B.raw(Instruction::makeBranch(Opcode::True, {}, 99, 0));
  Program P = B.build();
  std::vector<std::string> Problems = P.validate();
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("out of range"), std::string::npos);
}

TEST(Program, LabelForAddrFollowsRegions) {
  ProgramBuilder B;
  B.region("key", 0x40, 4, Label::secret(2));
  B.fence();
  Program P = B.build();
  EXPECT_EQ(P.labelForAddr(0x41), Label::secret(2));
  EXPECT_EQ(P.labelForAddr(0x44), Label::publicLabel());
}

} // namespace

namespace {

TEST(AsmParser, CallIRoundTrips) {
  Program P = parseAsmOrDie(R"(
    .reg rf
    .init rf @f
    .init rsp 0x20
    .region stack 0x18 9 public
    start:
      calli [rf, 0]
    f:
      ret
  )");
  EXPECT_TRUE(P.at(0).is(InstrKind::CallI));
  EXPECT_EQ(P.at(0).args().size(), 2u);
  std::string Text = printAsm(P);
  ParseResult R = parseAsm(Text);
  ASSERT_TRUE(R.ok()) << R.errorText();
  EXPECT_EQ(printAsm(*R.Prog), Text);
}

} // namespace

namespace {

TEST(AsmParser, SurvivesMutatedInputs) {
  // Robustness: byte-level mutations of valid sources must produce clean
  // diagnostics or a valid program — never a crash — and an accepted
  // mutant prints to text that parses back to the same text.  Digits,
  // `x` and `-` in the alphabet exercise the number lexer.
  std::vector<std::string> Seeds = {
      ".reg ra rb\nstart:\n  ra = add ra, 1\n  br ult ra, 4 -> start, e\n"
      "e:\n  store ra, [0x40, rb]\n",
      ".region k 0x40 4 secret\n.init rsp 0x20\nstart:\n  call f\nf:\n"
      "  ret\n",
  };
  for (uint64_t Seed = 0; Seed < 20; ++Seed)
    Seeds.push_back(printAsm(randomProgram(Seed, everyConstruct())));
  std::mt19937_64 Rng(42);
  const char Alphabet[] = "abxr0123456789[]@.,:->=# \n";
  unsigned Parsed = 0, Rejected = 0, NumberErrors = 0;
  for (const std::string &Seed : Seeds)
    for (int Round = 0; Round < 400; ++Round) {
      std::string Mutated = Seed;
      for (int Edit = 0; Edit < 3; ++Edit) {
        size_t At = Rng() % Mutated.size();
        Mutated[At] = Alphabet[Rng() % (sizeof(Alphabet) - 1)];
      }
      ParseResult R = parseAsm(Mutated);
      if (R.ok()) {
        ++Parsed;
        EXPECT_TRUE(R.Prog->validate().empty()) << Mutated;
        std::string Printed = printAsm(*R.Prog);
        ParseResult Again = parseAsm(Printed);
        ASSERT_TRUE(Again.ok()) << Mutated << "\n" << Again.errorText();
        EXPECT_EQ(printAsm(*Again.Prog), Printed) << Mutated;
      } else {
        ++Rejected;
        ASSERT_FALSE(R.Errors.empty());
        const std::string &First = R.Errors.front().Message;
        NumberErrors += First.find("malformed number") != std::string::npos ||
                        First.find("does not fit") != std::string::npos;
      }
    }
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Parsed, 0u); // Some mutations stay valid (comments etc.).
  EXPECT_GT(NumberErrors, 0u);
}

} // namespace
