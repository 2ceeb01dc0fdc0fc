//===- isa/AsmParser.cpp - Textual assembler -------------------------------===//

#include "isa/AsmParser.h"

#include "isa/ProgramBuilder.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace sct;

namespace {

/// Character classes of the "C" locale, one table lookup per character.
enum CharClass : uint8_t {
  Space = 1,      ///< isspace
  Digit = 2,      ///< isdigit
  Alnum = 4,      ///< isalnum
  IdentStart = 8, ///< alpha, `_`, `.`, `@`
  IdentCont = 16, ///< alnum, `_`, `.`
  Comment = 32,   ///< `;`, `#`: the rest of the line is a comment
};

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> Table{};
  for (unsigned C = 0; C < 256; ++C) {
    bool IsDigit = C >= '0' && C <= '9';
    bool IsAlpha = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
    uint8_t Bits = 0;
    if (C == ' ' || (C >= '\t' && C <= '\r'))
      Bits |= Space;
    if (IsDigit)
      Bits |= Digit;
    if (IsDigit || IsAlpha)
      Bits |= Alnum | IdentCont;
    if (IsAlpha || C == '_' || C == '.' || C == '@')
      Bits |= IdentStart;
    if (C == '_' || C == '.')
      Bits |= IdentCont;
    if (C == ';' || C == '#')
      Bits |= Comment;
    Table[C] = Bits;
  }
  return Table;
}

constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

bool is(char C, uint8_t Class) {
  return CharClasses[static_cast<unsigned char>(C)] & Class;
}

/// A lexed token: a view into the source line, never a copy.
struct Token {
  enum class Kind : uint8_t { End, Ident, Number, Punct, BadNumber };
  Kind K = Kind::End;
  bool Overflow = false; ///< A BadNumber whose digits are valid but too many.
  std::string_view Text; ///< Spelling; a number's includes sign and prefix.
  uint64_t Value = 0;    ///< Number value.

  /// Punctuation is one character or "->", so the first character and
  /// the length tell spellings apart.
  bool isPunct(std::string_view S) const {
    return K == Kind::Punct && Text.size() == S.size() && Text[0] == S[0];
  }
  /// An identifier that can name a code label: not a directive or `@ref`.
  bool isLabelName() const {
    return K == Kind::Ident && Text[0] != '.' && Text[0] != '@';
  }
  bool isLabelRef() const { return K == Kind::Ident && Text[0] == '@'; }
};

/// Lexes one source line, always one token ahead; a comment ends the
/// line.
class Lexer {
public:
  explicit Lexer(std::string_view Line)
      : Cur(Line.data()), End(Line.data() + Line.size()) {
    lex();
  }

  const Token &peek() const { return Ahead; }

  Token next() {
    Token T = Ahead;
    lex();
    return T;
  }

  bool atEnd() const { return Ahead.K == Token::Kind::End; }

private:
  const char *Cur;
  const char *End;
  Token Ahead;

  void lex() {
    while (Cur != End && is(*Cur, Space))
      ++Cur;
    const char *Start = Cur;
    Ahead.Value = 0;
    if (Cur == End || is(*Cur, Comment)) {
      Ahead.K = Token::Kind::End;
      Ahead.Text = {};
      return;
    }
    if (is(*Cur, IdentStart)) {
      ++Cur;
      while (Cur != End && is(*Cur, IdentCont))
        ++Cur;
      Ahead.K = Token::Kind::Ident;
    } else if (bool Minus = *Cur == '-' && Cur + 1 != End;
               is(*Cur, Digit) || (Minus && is(Cur[1], Digit))) {
      lexNumber();
    } else {
      // Punctuation; "->" is a single token.
      Cur += Minus && Cur[1] == '>' ? 2 : 1;
      Ahead.K = Token::Kind::Punct;
    }
    Ahead.Text = std::string_view(Start, Cur - Start);
  }

  /// `-`? (`0x` hex digits | decimal digits).  The numeral runs to the
  /// last alphanumeric character, and every one of them must be a digit
  /// of the base; the value must fit in 64 bits before negation.
  void lexNumber() {
    bool Negative = *Cur == '-';
    if (Negative)
      ++Cur;
    uint64_t Base = 10;
    if (*Cur == '0' && Cur + 1 != End && (Cur[1] | 0x20) == 'x') {
      Base = 16;
      Cur += 2;
    }
    const char *Digits = Cur;
    while (Cur != End && is(*Cur, Alnum))
      ++Cur;

    Ahead.K = Token::Kind::BadNumber;
    Ahead.Overflow = false;
    if (Digits == Cur)
      return;
    uint64_t V = 0;
    for (const char *D = Digits; D != Cur; ++D) {
      uint64_t DigitValue = is(*D, Digit) ? uint64_t(*D - '0')
                                          : uint64_t((*D | 0x20) - 'a') + 10;
      if (DigitValue >= Base)
        return;
      if (__builtin_mul_overflow(V, Base, &V) ||
          __builtin_add_overflow(V, DigitValue, &V)) {
        Ahead.Overflow = true;
        return;
      }
    }
    Ahead.K = Token::Kind::Number;
    Ahead.Value = Negative ? uint64_t(0) - V : V;
  }
};

/// A use of a code label, resolved once the whole source is read.
struct Fixup {
  enum class Site : unsigned char {
    BranchTrue,
    BranchFalse,
    Jump, ///< Both targets of a `jmp`.
    Callee,
    Arg,        ///< An `@lbl` operand: Index's args()[Arg].
    StoreValue, ///< An `@lbl` store value.
    Init,       ///< The Index-th .init value.
    Data,       ///< The Index-th .data word.
  };
  std::string_view Name;
  unsigned Line = 0;
  Site Where = Site::Arg;
  /// A branch's false target: resolved, and reported, together with
  /// its true target, the fixup before it.
  bool Paired = false;
  unsigned Arg = 0;
  size_t Index = 0; ///< Instruction, .init or .data entry.
  /// Errors.size() when the reference was read: an unknown label is
  /// reported at that position in the error list.
  size_t ErrorsBefore = 0;
  PC Target = 0; ///< Filled in by resolveFixups().
};

/// Buffers the parses on one thread reuse: cleared, never shrunk, so
/// their growth is paid once per thread rather than once per parse.  The
/// builder receives their contents at exact size.
struct Scratch {
  std::vector<Instruction> Text;
  std::vector<std::pair<Reg, uint64_t>> Inits;
  std::vector<std::pair<uint64_t, uint64_t>> Words; ///< .data (addr, word)
  std::vector<Operand> Ops; ///< The operand list being parsed.
  std::vector<Fixup> Fixups;
};

/// One pass over the source: each line is lexed once, and each use of a
/// code label leaves a placeholder plus a fixup that finish() patches or
/// reports before handing the program to the builder.
class Parser {
public:
  Parser() {
    S.Text.clear();
    S.Inits.clear();
    S.Words.clear();
    S.Fixups.clear();
  }

  ParseResult run(std::string_view Source) {
    const char *Cur = Source.data(), *End = Cur + Source.size();
    for (Line = 1;; ++Line) {
      const char *Eol =
          Cur == End ? nullptr
                     : static_cast<const char *>(
                           std::memchr(Cur, '\n', End - Cur));
      parseLine(std::string_view(Cur, (Eol ? Eol : End) - Cur));
      if (!Eol)
        break;
      Cur = Eol + 1;
    }
    return finish();
  }

private:
  using Site = Fixup::Site;

  static Scratch &scratch() {
    thread_local Scratch PerThread;
    return PerThread;
  }

  ProgramBuilder Builder; ///< Registers, regions and labels as declared.
  Scratch &S = scratch();
  std::vector<ParseError> DuplicateLabels;
  std::vector<ParseError> Errors;
  std::string_view EntryLabel;
  unsigned Line = 0; ///< The line being parsed.

  /// Program point of the next instruction.  A line that fails places
  /// nothing, but then no program is built.
  PC here() const { return static_cast<PC>(S.Text.size()); }

  void place(Instruction I) {
    I.setNext(here() + 1); // Straight-line successor; branches ignore it.
    S.Text.push_back(std::move(I));
  }

  /// The operand list just parsed, at its exact size.
  std::vector<Operand> takeOps() const {
    return std::vector<Operand>(S.Ops.begin(), S.Ops.end());
  }

  void error(std::string Message) {
    Errors.push_back({Line, std::move(Message)});
  }

  /// Reports \p T where something else was expected.  A malformed number
  /// is reported as such; anything else gets \p Message.
  void unexpected(const Token &T, std::string Message) {
    if (T.K != Token::Kind::BadNumber)
      return error(std::move(Message));
    std::string Spelling(T.Text);
    error(T.Overflow ? "number '" + Spelling + "' does not fit in 64 bits"
                     : "malformed number '" + Spelling + "'");
  }

  void parseLine(std::string_view Text) {
    Lexer Lex(Text);
    Token Head = Lex.next();
    if (Head.K == Token::Kind::End)
      return;
    if (Head.K == Token::Kind::Ident && Head.Text[0] == '.')
      return parseDirective(Head.Text, Lex);
    // A line may carry several label definitions before its instruction.
    while (Head.isLabelName() && Lex.peek().isPunct(":")) {
      Lex.next();
      defineLabel(Head.Text);
      Head = Lex.next();
    }
    if (Head.K == Token::Kind::End)
      return;
    parseInstruction(Head, Lex);
  }

  void defineLabel(std::string_view Name) {
    if (!Builder.labelAtPC(Name, here()))
      DuplicateLabels.push_back(
          {Line, "duplicate code label '" + std::string(Name) + "'"});
  }

  /// Records a use of label \p Name at \p Where; the caller places 0,
  /// which finish() patches.
  void labelRef(std::string_view Name, Site Where, size_t Index,
                unsigned Arg = 0) {
    Fixup F;
    F.Name = Name;
    F.Line = Line;
    F.Where = Where;
    F.Arg = Arg;
    F.Index = Index;
    F.ErrorsBefore = Errors.size();
    S.Fixups.push_back(F);
  }

  bool expectPunct(Lexer &Lex, std::string_view Spelling) {
    Token T = Lex.next();
    if (T.isPunct(Spelling))
      return true;
    unexpected(T, "expected '" + std::string(Spelling) + "'");
    return false;
  }

  std::optional<std::string_view> expectIdent(Lexer &Lex, const char *What) {
    Token T = Lex.next();
    if (T.K == Token::Kind::Ident)
      return T.Text;
    unexpected(T, std::string("expected ") + What);
    return std::nullopt;
  }

  std::optional<uint64_t> expectNumber(Lexer &Lex, const char *What) {
    Token T = Lex.next();
    if (T.K == Token::Kind::Number)
      return T.Value;
    unexpected(T, std::string("expected ") + What);
    return std::nullopt;
  }

  /// \p What is "instruction" or "directive".
  void expectLineEnd(Lexer &Lex, const char *What) {
    const Token &T = Lex.peek();
    if (T.K != Token::Kind::End)
      unexpected(T, std::string("trailing tokens after ") + What);
  }

  /// Parses one operand of the current instruction: register, number, or
  /// @label; \p Where and \p Arg place a label fixup.
  std::optional<Operand> parseOperand(Lexer &Lex, Site Where, unsigned Arg) {
    Token T = Lex.next();
    if (T.K == Token::Kind::Number)
      return Operand::imm(T.Value);
    if (T.isLabelRef()) {
      labelRef(T.Text.substr(1), Where, here(), Arg);
      return Operand::imm(0);
    }
    if (T.K == Token::Kind::Ident) {
      // Must be a declared register (rsp/rtmp are always declared).
      if (auto R = Builder.lookupReg(T.Text))
        return Operand::reg(*R);
      error("unknown register '" + std::string(T.Text) +
            "' (declare it with .reg, or use @label)");
      return std::nullopt;
    }
    unexpected(T, "expected operand");
    return std::nullopt;
  }

  /// Parses a comma-separated operand list into S.Ops until end-of-line
  /// or a stop punct (not consumed).
  bool parseOperandList(Lexer &Lex, std::string_view Stop = {}) {
    S.Ops.clear();
    if (Lex.atEnd() || (!Stop.empty() && Lex.peek().isPunct(Stop)))
      return true;
    for (;;) {
      auto Op =
          parseOperand(Lex, Site::Arg, static_cast<unsigned>(S.Ops.size()));
      if (!Op)
        return false;
      S.Ops.push_back(*Op);
      if (!Lex.peek().isPunct(","))
        return true;
      Lex.next();
    }
  }

  /// Parses `[ a, b, ... ]` into S.Ops.
  bool parseAddr(Lexer &Lex) {
    if (!expectPunct(Lex, "[") || !parseOperandList(Lex, "]") ||
        !expectPunct(Lex, "]"))
      return false;
    if (S.Ops.empty()) {
      error("empty address operand list");
      return false;
    }
    return true;
  }

  void parseDirective(std::string_view Name, Lexer &Lex) {
    // Most frequent first: a program's data image is one word a line.
    if (Name == ".data") {
      auto Base = expectNumber(Lex, "base address");
      if (!Base)
        return;
      uint64_t Addr = *Base;
      while (!Lex.atEnd()) {
        Token T = Lex.next();
        uint64_t W = 0;
        if (T.K == Token::Kind::Number)
          W = T.Value;
        else if (T.isLabelRef())
          labelRef(T.Text.substr(1), Site::Data, S.Words.size());
        else
          return unexpected(T, ".data expects word values");
        S.Words.emplace_back(Addr++, W);
      }
      return;
    }
    if (Name == ".reg") {
      while (!Lex.atEnd()) {
        Token T = Lex.next();
        if (T.K != Token::Kind::Ident)
          return unexpected(T, ".reg expects register names");
        Builder.reg(std::string(T.Text));
      }
      return;
    }
    if (Name == ".init") {
      auto RegName = expectIdent(Lex, "register name");
      if (!RegName)
        return;
      Token ValTok = Lex.next();
      uint64_t V = 0;
      if (ValTok.K == Token::Kind::Number)
        V = ValTok.Value;
      else if (ValTok.isLabelRef())
        labelRef(ValTok.Text.substr(1), Site::Init, S.Inits.size());
      else
        return unexpected(ValTok,
                          "expected initial value (number or @label)");
      auto R = Builder.lookupReg(*RegName);
      if (!R)
        return error("unknown register '" + std::string(*RegName) +
                     "' in .init");
      S.Inits.emplace_back(*R, V);
      return expectLineEnd(Lex, "directive");
    }
    if (Name == ".region") {
      auto RegionName = expectIdent(Lex, "region name");
      auto Base =
          RegionName ? expectNumber(Lex, "region base") : std::nullopt;
      auto Size = Base ? expectNumber(Lex, "region size") : std::nullopt;
      auto Vis =
          Size ? expectIdent(Lex, "'public' or 'secret'") : std::nullopt;
      if (!Vis)
        return;
      Label RegionLabel = Label::publicLabel();
      if (*Vis == "secret") {
        uint64_t Src = 0;
        if (!Lex.atEnd()) {
          auto Explicit = expectNumber(Lex, "taint source id");
          if (!Explicit)
            return;
          Src = *Explicit;
        }
        if (Src >= Label::MaxSources)
          return error("taint source id out of range");
        RegionLabel = Label::secret(static_cast<unsigned>(Src));
      } else if (*Vis != "public") {
        return error("region visibility must be 'public' or 'secret'");
      }
      Builder.region(std::string(*RegionName), *Base, *Size, RegionLabel);
      return expectLineEnd(Lex, "directive");
    }
    if (Name == ".entry") {
      auto LabelName = expectIdent(Lex, "entry label");
      if (!LabelName)
        return;
      EntryLabel = *LabelName;
      return expectLineEnd(Lex, "directive");
    }
    error("unknown directive '" + std::string(Name) + "'");
  }

  void parseInstruction(const Token &First, Lexer &Lex) {
    if (First.K != Token::Kind::Ident)
      return unexpected(First, "expected instruction");
    std::string_view Head = First.Text;

    if (Head == "store") {
      auto Val = parseOperand(Lex, Site::StoreValue, 0);
      if (!Val || !expectPunct(Lex, ",") || !parseAddr(Lex))
        return;
      place(Instruction::makeStore(*Val, takeOps()));
      return expectLineEnd(Lex, "instruction");
    }
    if (Head == "br") {
      auto CondName = expectIdent(Lex, "branch condition");
      if (!CondName)
        return;
      auto Cond = parseOpcode(*CondName);
      if (!Cond || !isCondition(*Cond))
        return error("unknown branch condition '" + std::string(*CondName) +
                     "'");
      if (!parseOperandList(Lex, "->") || !expectPunct(Lex, "->"))
        return;
      auto TrueName = expectIdent(Lex, "true-branch label");
      if (!TrueName || !expectPunct(Lex, ","))
        return;
      auto FalseName = expectIdent(Lex, "false-branch label");
      if (!FalseName)
        return;
      labelRef(*TrueName, Site::BranchTrue, here());
      labelRef(*FalseName, Site::BranchFalse, here());
      S.Fixups.back().Paired = true;
      if (S.Ops.size() != opcodeArity(*Cond))
        return error("operand count mismatch for condition '" +
                     std::string(*CondName) + "'");
      place(Instruction::makeBranch(*Cond, takeOps(), 0, 0));
      return expectLineEnd(Lex, "instruction");
    }
    if (Head == "jmp") {
      auto Target = expectIdent(Lex, "jump label");
      if (!Target)
        return;
      labelRef(*Target, Site::Jump, here());
      place(Instruction::makeBranch(Opcode::True, {}, 0, 0));
      return expectLineEnd(Lex, "instruction");
    }
    if (Head == "jmpi" || Head == "calli") {
      if (!parseAddr(Lex))
        return;
      place(Head == "jmpi" ? Instruction::makeJumpI(takeOps())
                           : Instruction::makeCallI(takeOps()));
      return expectLineEnd(Lex, "instruction");
    }
    if (Head == "call") {
      auto Callee = expectIdent(Lex, "callee label");
      if (!Callee)
        return;
      labelRef(*Callee, Site::Callee, here());
      place(Instruction::makeCall(0));
      return expectLineEnd(Lex, "instruction");
    }
    if (Head == "ret") {
      place(Instruction::makeRet());
      return expectLineEnd(Lex, "instruction");
    }
    if (Head == "fence") {
      place(Instruction::makeFence());
      return expectLineEnd(Lex, "instruction");
    }

    // Remaining form: `reg = load [...]` or `reg = OPC args`.
    auto Dest = Builder.lookupReg(Head);
    if (!Dest)
      return error("unknown instruction or register '" + std::string(Head) +
                   "'");
    if (!expectPunct(Lex, "="))
      return;
    auto OpName = expectIdent(Lex, "opcode or 'load'");
    if (!OpName)
      return;
    if (*OpName == "load") {
      if (!parseAddr(Lex))
        return;
      place(Instruction::makeLoad(*Dest, takeOps()));
      return expectLineEnd(Lex, "instruction");
    }
    auto Opc = parseOpcode(*OpName);
    if (!Opc)
      return error("unknown opcode '" + std::string(*OpName) + "'");
    if (!parseOperandList(Lex))
      return;
    if (S.Ops.size() != opcodeArity(*Opc))
      return error("operand count mismatch for opcode '" +
                   std::string(*OpName) + "'");
    place(Instruction::makeOp(*Dest, *Opc, takeOps()));
    expectLineEnd(Lex, "instruction");
  }


  /// Resolves every fixup against the complete label table and returns
  /// the line errors in source order, each unknown label at the position
  /// its reference was read.  The rest of a line after an unknown label
  /// is not reported: its diagnostics were read past a reference that
  /// already failed (a branch reports both of its targets).
  std::vector<ParseError> resolveFixups() {
    std::vector<ParseError> Out;
    size_t NextError = 0;
    unsigned CutLine = 0;
    bool PrevCut = false;
    auto FlushTo = [&](size_t End) {
      for (; NextError < End; ++NextError)
        if (Errors[NextError].Line != CutLine)
          Out.push_back(std::move(Errors[NextError]));
    };
    for (Fixup &F : S.Fixups) {
      bool Skip = F.Line == CutLine && !(F.Paired && PrevCut);
      PrevCut = false;
      if (Skip)
        continue;
      if (std::optional<PC> Defined = Builder.lookupLabel(F.Name)) {
        F.Target = *Defined;
        continue;
      }
      FlushTo(F.ErrorsBefore);
      Out.push_back(
          {F.Line, "unknown code label '" + std::string(F.Name) + "'"});
      CutLine = F.Line;
      PrevCut = true;
    }
    FlushTo(Errors.size());
    return Out;
  }

  void patch(const Fixup &F) {
    switch (F.Where) {
    case Site::BranchTrue: {
      Instruction &I = S.Text[F.Index];
      return I.setBranchTargets(F.Target, I.falseTarget());
    }
    case Site::BranchFalse: {
      Instruction &I = S.Text[F.Index];
      return I.setBranchTargets(I.trueTarget(), F.Target);
    }
    case Site::Jump:
      return S.Text[F.Index].setBranchTargets(F.Target, F.Target);
    case Site::Callee:
      return S.Text[F.Index].setCallee(F.Target);
    case Site::Arg:
      return S.Text[F.Index].setArg(F.Arg, Operand::imm(F.Target));
    case Site::StoreValue:
      return S.Text[F.Index].setStoreValue(Operand::imm(F.Target));
    case Site::Init:
      S.Inits[F.Index].second = F.Target;
      return;
    case Site::Data:
      S.Words[F.Index].second = F.Target;
      return;
    }
  }

  /// Error precedence: duplicate labels alone; else line errors in line
  /// order, then the entry label; else validation.
  ParseResult finish() {
    if (!DuplicateLabels.empty())
      return {std::nullopt, std::move(DuplicateLabels)};
    std::vector<ParseError> Found = resolveFixups();
    if (!EntryLabel.empty()) {
      if (std::optional<PC> Entry = Builder.lookupLabel(EntryLabel))
        Builder.entryPC(*Entry);
      else
        Found.push_back(
            {0, "unknown entry label '" + std::string(EntryLabel) + "'"});
    }
    if (!Found.empty())
      return {std::nullopt, std::move(Found)};

    for (const Fixup &F : S.Fixups)
      patch(F);
    Builder.reserve(S.Text.size(), S.Inits.size(), S.Words.size());
    for (Instruction &I : S.Text)
      Builder.raw(std::move(I));
    for (const auto &[R, V] : S.Inits)
      Builder.init(R, V);
    for (const auto &[Addr, W] : S.Words)
      Builder.data(Addr, {W});
    Program P = Builder.build();
    for (const std::string &Problem : P.validate())
      Found.push_back({0, "validation: " + Problem});
    if (!Found.empty())
      return {std::nullopt, std::move(Found)};
    return {std::move(P), {}};
  }
};

} // namespace

std::string ParseResult::errorText() const {
  std::string Result;
  for (const ParseError &E : Errors) {
    Result += "line " + std::to_string(E.Line) + ": " + E.Message + "\n";
  }
  return Result;
}

ParseResult sct::parseAsm(std::string_view Source) {
  return Parser().run(Source);
}

Program sct::parseAsmOrDie(std::string_view Source) {
  ParseResult R = parseAsm(Source);
  if (!R.ok()) {
    std::fprintf(stderr, "parseAsmOrDie failed:\n%s", R.errorText().c_str());
    std::abort();
  }
  return std::move(*R.Prog);
}
