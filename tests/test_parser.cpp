//===--- test_parser.cpp - Parser unit tests ---------------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <gtest/gtest.h>

using namespace esp;

namespace {

/// Parses without running Sema; returns null on parse errors.
std::unique_ptr<Program> parseOnly(const std::string &Source,
                                   std::string *Errors = nullptr) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  std::unique_ptr<Program> Prog =
      Parser::parse(SM, Diags, "parse.esp", Source);
  if (Errors)
    *Errors = Diags.renderAll();
  return Prog;
}

void expectParseError(const std::string &Source,
                      const std::string &Fragment) {
  std::string Errors;
  std::unique_ptr<Program> Prog = parseOnly(Source, &Errors);
  EXPECT_EQ(Prog, nullptr) << "expected parse failure";
  EXPECT_NE(Errors.find(Fragment), std::string::npos)
      << "diagnostics were:\n"
      << Errors;
}

//===----------------------------------------------------------------------===//
// Top-level declarations
//===----------------------------------------------------------------------===//

TEST(Parser, EmptyProgramParses) {
  auto Prog = parseOnly("");
  ASSERT_TRUE(Prog);
  EXPECT_TRUE(Prog->Processes.empty());
  EXPECT_TRUE(Prog->Channels.empty());
}

TEST(Parser, TypeDeclarations) {
  auto Prog = parseOnly(R"(
type a = int
type b = bool
type r = record of { x: int, y: bool }
type u = union of { p: int, q: r }
type arr = array of int
type marr = #array of int
)");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->TypeDecls.size(), 6u);
  EXPECT_TRUE(Prog->findTypeDecl("r")->Resolved->isRecord());
  EXPECT_TRUE(Prog->findTypeDecl("u")->Resolved->isUnion());
  EXPECT_TRUE(Prog->findTypeDecl("arr")->Resolved->isArray());
  EXPECT_FALSE(Prog->findTypeDecl("arr")->Resolved->isMutable());
  EXPECT_TRUE(Prog->findTypeDecl("marr")->Resolved->isMutable());
}

TEST(Parser, NamedTypesResolveStructurally) {
  auto Prog = parseOnly(R"(
type a = record of { x: int }
type b = record of { x: int }
)");
  ASSERT_TRUE(Prog);
  // Structural typing: same shape, same uniqued type.
  EXPECT_EQ(Prog->findTypeDecl("a")->Resolved,
            Prog->findTypeDecl("b")->Resolved);
}

TEST(Parser, UnknownTypeNameIsError) {
  expectParseError("type t = record of { x: mysteryT }", "unknown type");
}

TEST(Parser, TypeRedefinitionIsError) {
  expectParseError("type t = int\ntype t = bool", "redefinition");
}

TEST(Parser, FieldListAllowsTrailingEllipsis) {
  // The paper's examples elide fields with "...".
  auto Prog = parseOnly("type u = union of { send: int, update: bool, ... }");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->findTypeDecl("u")->Resolved->getFields().size(), 2u);
}

TEST(Parser, ChannelDeclarations) {
  auto Prog = parseOnly(R"(
type msgT = record of { a: int }
channel c1: int
channel c2: msgT
)");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->Channels.size(), 2u);
  EXPECT_EQ(Prog->Channels[0]->Id, 0u);
  EXPECT_EQ(Prog->Channels[1]->Id, 1u);
  EXPECT_TRUE(Prog->findChannel("c2")->ElemType->isRecord());
}

TEST(Parser, ConstDeclarations) {
  auto Prog = parseOnly("const N = 4;\nconst FLAG = true;");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->ConstDecls.size(), 2u);
  EXPECT_NE(Prog->findConst("N"), nullptr);
}

TEST(Parser, InterfaceDeclarations) {
  auto Prog = parseOnly(R"(
type sendT = record of { dest: int }
type userT = union of { send: sendT }
channel userReqC: userT
interface UserReq(out userReqC) {
  Send( { send |> { $dest } } )
}
channel doneC: int
interface Done(in doneC) { Finished( $v ) }
)");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->Interfaces.size(), 2u);
  EXPECT_TRUE(Prog->Interfaces[0]->ExternalWrites);
  EXPECT_FALSE(Prog->Interfaces[1]->ExternalWrites);
  EXPECT_EQ(Prog->Interfaces[0]->Cases.size(), 1u);
  EXPECT_EQ(Prog->Interfaces[0]->Cases[0].Name, "Send");
}

TEST(Parser, InterfaceRequiresDirection) {
  expectParseError(
      "channel c: int\ninterface I(c) { A( $v ) }\nprocess p { in(c, $x); }",
      "expected 'in' or 'out'");
}

TEST(Parser, ProcessIdsAreDense) {
  auto Prog = parseOnly(R"(
channel c: int
process a { out(c, 1); }
process b { in(c, $x); }
process d { in(c, $y); }
)");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->Processes.size(), 3u);
  EXPECT_EQ(Prog->Processes[0]->ProcessId, 0u);
  EXPECT_EQ(Prog->Processes[2]->ProcessId, 2u);
  EXPECT_EQ(Prog->findProcess("d"), Prog->Processes[2].get());
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Parses a single-process program and returns its body.
const BlockStmt *parseBody(const std::string &Stmts,
                           std::unique_ptr<Program> &Keep) {
  Keep = parseOnly("channel c: int\nchannel d: int\nprocess p {\n" + Stmts +
                   "\n}");
  if (!Keep || Keep->Processes.empty())
    return nullptr;
  return Keep->Processes[0]->Body;
}

TEST(Parser, DeclWithAndWithoutAnnotation) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody("$i: int = 7;\n$j = 36;", Keep);
  ASSERT_TRUE(Body);
  ASSERT_EQ(Body->getBody().size(), 2u);
  const auto *D0 = ast_dyn_cast<DeclStmt>(Body->getBody()[0]);
  const auto *D1 = ast_dyn_cast<DeclStmt>(Body->getBody()[1]);
  ASSERT_TRUE(D0 && D1);
  EXPECT_NE(D0->getAnnotation(), nullptr);
  EXPECT_EQ(D1->getAnnotation(), nullptr); // Inferred (§4.1).
}

TEST(Parser, WhileWithoutConditionLoopsForever) {
  // The paper writes `while { alt { ... } }`.
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody("while { in(c, $x); }", Keep);
  ASSERT_TRUE(Body);
  const auto *W = ast_dyn_cast<WhileStmt>(Body->getBody()[0]);
  ASSERT_TRUE(W);
  EXPECT_EQ(W->getCond(), nullptr);
}

TEST(Parser, WhileTrueNormalizedToForever) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody("while (true) { in(c, $x); }", Keep);
  ASSERT_TRUE(Body);
  EXPECT_EQ(ast_cast<WhileStmt>(Body->getBody()[0])->getCond(), nullptr);
}

TEST(Parser, StandaloneInOutDesugarToSingleCaseAlt) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody("in(c, $x);\nout(d, x);", Keep);
  ASSERT_TRUE(Body);
  const auto *A0 = ast_dyn_cast<AltStmt>(Body->getBody()[0]);
  const auto *A1 = ast_dyn_cast<AltStmt>(Body->getBody()[1]);
  ASSERT_TRUE(A0 && A1);
  EXPECT_EQ(A0->getCases().size(), 1u);
  EXPECT_TRUE(A0->getCases()[0].Action.IsIn);
  EXPECT_FALSE(A1->getCases()[0].Action.IsIn);
  EXPECT_EQ(A0->getCases()[0].Guard, nullptr);
}

TEST(Parser, AltWithGuardsAndBodies) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody(R"(
$full = false;
alt {
  case( !full, in( c, $v)) { full = true; }
  case( full, out( d, 1)) { full = false; }
  case( in( c, $w))
}
)",
                                    Keep);
  ASSERT_TRUE(Body);
  const auto *A = ast_dyn_cast<AltStmt>(Body->getBody()[1]);
  ASSERT_TRUE(A);
  ASSERT_EQ(A->getCases().size(), 3u);
  EXPECT_NE(A->getCases()[0].Guard, nullptr);
  EXPECT_NE(A->getCases()[1].Guard, nullptr);
  EXPECT_EQ(A->getCases()[2].Guard, nullptr);
  EXPECT_NE(A->getCases()[0].Body, nullptr);
  EXPECT_EQ(A->getCases()[2].Body, nullptr);
}

TEST(Parser, EmptyAltIsError) {
  expectParseError("channel c: int\nprocess p { alt { } }",
                   "at least one case");
}

TEST(Parser, LinkUnlinkAssert) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody(
      "$a: #array of int = #{ 4 -> 0 };\nlink(a);\nunlink(a);\n"
      "assert(a[0] == 0);",
      Keep);
  ASSERT_TRUE(Body);
  EXPECT_EQ(Body->getBody()[1]->getKind(), StmtKind::Link);
  EXPECT_EQ(Body->getBody()[2]->getKind(), StmtKind::Unlink);
  EXPECT_EQ(Body->getBody()[3]->getKind(), StmtKind::Assert);
}

TEST(Parser, PatternAssignmentStatement) {
  // The paper's `{ send |> { $dest, $vAddr, $size}}: userT = ur2;`.
  std::unique_ptr<Program> Keep;
  Keep = parseOnly(R"(
type sendT = record of { dest: int, size: int }
type userT = union of { send: sendT }
channel c: userT
process p {
  in(c, $ur);
  { send |> { $dest, $size } }: userT = ur;
  out(d, dest + size);
}
channel d: int
)");
  ASSERT_TRUE(Keep);
  const BlockStmt *Body = Keep->Processes[0]->Body;
  const auto *A = ast_dyn_cast<AssignStmt>(Body->getBody()[1]);
  ASSERT_TRUE(A);
  EXPECT_NE(A->getAnnotation(), nullptr);
  EXPECT_EQ(A->getLHS()->getKind(), PatternKind::Union);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

TEST(Parser, OperatorPrecedence) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody("$x = 1 + 2 * 3 - 4 / 2;", Keep);
  ASSERT_TRUE(Body);
  const auto *D = ast_cast<DeclStmt>(Body->getBody()[0]);
  // ((1 + (2*3)) - (4/2)): top is '-'.
  const auto *Top = ast_dyn_cast<BinaryExpr>(D->getInit());
  ASSERT_TRUE(Top);
  EXPECT_EQ(Top->getOp(), BinaryOp::Sub);
  const auto *L = ast_dyn_cast<BinaryExpr>(Top->getLHS());
  ASSERT_TRUE(L);
  EXPECT_EQ(L->getOp(), BinaryOp::Add);
}

TEST(Parser, ComparisonBindsTighterThanLogical) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody("$b = 1 < 2 && 3 >= 2 || false;", Keep);
  ASSERT_TRUE(Body);
  const auto *Top = ast_dyn_cast<BinaryExpr>(
      ast_cast<DeclStmt>(Body->getBody()[0])->getInit());
  ASSERT_TRUE(Top);
  EXPECT_EQ(Top->getOp(), BinaryOp::Or);
}

TEST(Parser, PostfixChains) {
  std::unique_ptr<Program> Keep;
  Keep = parseOnly(R"(
type innerT = record of { arr: array of int }
type outerT = record of { inner: innerT }
channel c: outerT
process p {
  in(c, $o);
  $x = o.inner.arr[3];
}
)");
  ASSERT_TRUE(Keep);
  const auto *D =
      ast_cast<DeclStmt>(Keep->Processes[0]->Body->getBody()[1]);
  const auto *Ix = ast_dyn_cast<IndexExpr>(D->getInit());
  ASSERT_TRUE(Ix);
  const auto *F = ast_dyn_cast<FieldExpr>(Ix->getBase());
  ASSERT_TRUE(F);
  EXPECT_EQ(F->getFieldName(), "arr");
}

TEST(Parser, BraceLiteralKinds) {
  std::unique_ptr<Program> Keep;
  Keep = parseOnly(R"(
type rT = record of { a: int, b: int }
type uT = union of { f: int }
channel cr: rT
channel cu: uT
process p {
  $arr: #array of int = #{ 8 -> 0, ... };
  out(cr, { 1, 2 });
  out(cu, { f |> 3 });
}
)");
  ASSERT_TRUE(Keep);
  const auto &Stmts = Keep->Processes[0]->Body->getBody();
  const auto *D = ast_cast<DeclStmt>(Stmts[0]);
  EXPECT_EQ(D->getInit()->getKind(), ExprKind::ArrayLit);
  EXPECT_TRUE(ast_cast<ArrayLitExpr>(D->getInit())->isMutableLit());
  const auto *O1 = ast_cast<AltStmt>(Stmts[1]);
  EXPECT_EQ(O1->getCases()[0].Action.Out->getKind(), ExprKind::RecordLit);
  const auto *O2 = ast_cast<AltStmt>(Stmts[2]);
  EXPECT_EQ(O2->getCases()[0].Action.Out->getKind(), ExprKind::UnionLit);
}

TEST(Parser, AtAndCast) {
  std::unique_ptr<Program> Keep;
  const BlockStmt *Body = parseBody(
      "$id = @;\n$m: #array of int = #{ 2 -> 0 };\n$f = cast(m);", Keep);
  ASSERT_TRUE(Body);
  EXPECT_EQ(ast_cast<DeclStmt>(Body->getBody()[0])->getInit()->getKind(),
            ExprKind::SelfId);
  EXPECT_EQ(ast_cast<DeclStmt>(Body->getBody()[2])->getInit()->getKind(),
            ExprKind::Cast);
}

TEST(Parser, NegativeLiteralsInRecords) {
  std::unique_ptr<Program> Keep;
  Keep = parseOnly(R"(
type rT = record of { a: int, b: int }
channel c: rT
process p { out(c, { -1, -2 }); }
process q { in(c, { $a, $b }); }
)");
  ASSERT_TRUE(Keep);
}

TEST(Parser, UnionPatternVersusRecordPattern) {
  std::unique_ptr<Program> Keep;
  Keep = parseOnly(R"(
type uT = union of { a: int }
channel c: uT
channel d: int
process p {
  alt {
    case( in( c, { a |> $x })) { out(d, x); }
  }
}
)");
  ASSERT_TRUE(Keep);
  const auto *A = ast_cast<AltStmt>(Keep->Processes[0]->Body->getBody()[0]);
  EXPECT_EQ(A->getCases()[0].Action.Pat->getKind(), PatternKind::Union);
}

TEST(Parser, MissingSemicolonIsError) {
  expectParseError("channel c: int\nprocess p { $x = 1 }", "expected ';'");
}

TEST(Parser, RecoveryAfterBadStatementContinues) {
  // One bad statement must not hide the rest of the file from parsing.
  std::string Errors;
  auto Prog = parseOnly(R"(
channel c: int
process p { $x = ; }
process q { in(c, $v); }
)",
                        &Errors);
  EXPECT_EQ(Prog, nullptr); // Errors were reported...
  EXPECT_NE(Errors.find("expected an expression"), std::string::npos);
}

TEST(Parser, UnclosedBlockBeforeDeclarationTerminates) {
  // The statement sync stops in front of `process` without consuming
  // it; the block must give up there instead of retrying forever.
  expectParseError("process p { process", "to close block");
  // Parsing resumes at the declaration: line 2 draws no diagnostic.
  std::string Errors;
  parseOnly("process p { $x = 1; channel c: int\nprocess q { in(c, $v); }",
            &Errors);
  EXPECT_NE(Errors.find("to close block"), std::string::npos) << Errors;
  EXPECT_EQ(Errors.find("parse.esp:2"), std::string::npos) << Errors;
}

TEST(Parser, SourceLocationsPointAtOffendingToken) {
  std::string Errors;
  parseOnly("channel c: int\nprocess p {\n  $x = ;\n}\n", &Errors);
  // Line 3 is the bad statement.
  EXPECT_NE(Errors.find("parse.esp:3"), std::string::npos) << Errors;
}

} // namespace
