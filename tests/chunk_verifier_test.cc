// Execution-contract verification (lint/chunk_verifier.h): sabotage goldens
// for every diagnostic (BSV020-025), the lifecycle checks on manually
// driven operators, the strict 0/1 contract of the SET verify knobs, and
// the counter surfaces (born_stat_verifier, EXPLAIN VERIFY).
//
// The sabotage pattern mirrors the translation-validator tests: a
// file-static test hook corrupts a chunk (or selection vector) as it
// crosses an operator boundary, and the test asserts the verifier fails
// the statement with the exact BSVnnn code. The hooks run before the
// checks, so the verifier is judged on corrupted data it did not produce.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/chunk.h"
#include "exec/evaluator.h"
#include "exec/operators.h"
#include "lint/chunk_verifier.h"
#include "obs/memory.h"
#include "tests/test_util.h"

namespace bornsql::lint {
namespace {

using exec::DataChunk;
using exec::Operator;
using exec::OperatorPtr;
using testing::MustQuery;

OperatorPtr Rows(Schema schema, std::vector<Row> rows) {
  return testing::RowsScan(std::move(schema), std::move(rows));
}

Schema IntCol() {
  Schema s;
  s.Add(Column{"t", "a", ValueType::kInt});
  return s;
}

std::vector<Row> IntRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value::Int(i)});
  return rows;
}

// A TEXT value whose shared payload was stolen by a move — the debug
// poison BSV023 exists to catch.
Value HollowText() {
  Value v = Value::Text("stolen");
  Value thief = std::move(v);
  (void)thief;
  return v;  // NOLINT(bugprone-use-after-move): deliberate
}

// ---------------------------------------------------------------------------
// Sabotage goldens through a full Database execution.
// ---------------------------------------------------------------------------

class ChunkVerifierSabotageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::EngineConfig cfg;
    cfg.verify_chunks = true;
    db_ = std::make_unique<engine::Database>(cfg);
    BORNSQL_ASSERT_OK(db_->ExecuteScript(
        "CREATE TABLE nums (a INTEGER, b TEXT);"
        "INSERT INTO nums VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w')"));
  }

  void TearDown() override {
    SetChunkSabotageForTesting(nullptr);
    SetSelectionSabotageForTesting(nullptr);
  }

  // Applies `corrupt` to every chunk a SeqScan emits, so the sabotage hits
  // the first operator boundary of the plan.
  void SabotageScanChunks(std::function<void(DataChunk*)> corrupt) {
    SetChunkSabotageForTesting(
        [corrupt = std::move(corrupt)](const Operator& op, DataChunk* chunk) {
          if (op.DebugString().rfind("SeqScan", 0) == 0) corrupt(chunk);
        });
  }

  void ExpectViolation(const std::string& sql, const std::string& code,
                       const std::string& message_part) {
    auto result = db_->Execute(sql);
    ASSERT_FALSE(result.ok()) << "expected " << code << " from: " << sql;
    const std::string msg = result.status().ToString();
    EXPECT_NE(msg.find(code), std::string::npos) << msg;
    EXPECT_NE(msg.find(message_part), std::string::npos) << msg;
  }

  std::unique_ptr<engine::Database> db_;
};

TEST_F(ChunkVerifierSabotageTest, Bsv020CatchesAColumnCountMismatch) {
  SabotageScanChunks([](DataChunk* chunk) {
    chunk->Reset(chunk->column_count() + 1);
  });
  ExpectViolation("SELECT a FROM nums", "BSV020", "columns");
}

TEST_F(ChunkVerifierSabotageTest, Bsv020CatchesATypeTagMismatch) {
  // The scan's declared schema says column 0 is INTEGER; planting a TEXT
  // value is the kind of lie a miscompiled projection would tell.
  SabotageScanChunks([](DataChunk* chunk) {
    if (!chunk->empty()) chunk->column(0)[0] = Value::Text("boom");
  });
  ExpectViolation("SELECT a FROM nums", "BSV020", "declared type");
}

TEST_F(ChunkVerifierSabotageTest, Bsv021CatchesAColumnLengthLie) {
  SabotageScanChunks([](DataChunk* chunk) {
    chunk->column(0).push_back(Value::Int(99));
  });
  ExpectViolation("SELECT a FROM nums", "BSV021", "cardinality");
}

TEST_F(ChunkVerifierSabotageTest, Bsv021CatchesAnEmptyChunk) {
  SabotageScanChunks([](DataChunk* chunk) { chunk->Clear(); });
  ExpectViolation("SELECT a FROM nums", "BSV021", "empty chunk");
}

TEST_F(ChunkVerifierSabotageTest, Bsv022CatchesAnOutOfBoundsSelection) {
  SetSelectionSabotageForTesting(
      [](const Operator&, exec::SelectionVector* sel) {
        sel->assign({1000000u});
      });
  ExpectViolation("SELECT a FROM nums WHERE a > 1", "BSV022",
                  "out of bounds");
}

TEST_F(ChunkVerifierSabotageTest, Bsv022CatchesANonIncreasingSelection) {
  SetSelectionSabotageForTesting(
      [](const Operator&, exec::SelectionVector* sel) {
        if (sel->size() >= 2) std::swap((*sel)[0], (*sel)[1]);
      });
  ExpectViolation("SELECT a FROM nums WHERE a > 1", "BSV022",
                  "strictly increasing");
}

TEST_F(ChunkVerifierSabotageTest, Bsv023CatchesAHollowMovedFromText) {
  SabotageScanChunks([](DataChunk* chunk) {
    if (!chunk->empty()) {
      chunk->column(chunk->column_count() - 1)[0] = HollowText();
    }
  });
  ExpectViolation("SELECT b FROM nums", "BSV023", "hollow");
}

TEST_F(ChunkVerifierSabotageTest, ViolationsShowUpInTheLifetimeCounters) {
  SabotageScanChunks([](DataChunk* chunk) { chunk->Clear(); });
  ExpectViolation("SELECT a FROM nums", "BSV021", "empty chunk");
  SetChunkSabotageForTesting(nullptr);
  EXPECT_GE(db_->chunk_verifier_totals().violations, 1u);
  auto r = MustQuery(*db_, "SELECT violations FROM born_stat_verifier");
  EXPECT_GE(r.rows[0][0].AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Lifecycle (BSV024) and memory balance (BSV025) on manually driven
// operators.
// ---------------------------------------------------------------------------

TEST(ChunkVerifierLifecycleTest, Bsv024NextBeforeOpen) {
  ChunkVerifier verifier;
  OperatorPtr op = Rows(IntCol(), IntRows(3));
  op->SetExecVerifier(&verifier);
  DataChunk chunk;
  auto r = op->Next(&chunk);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("BSV024"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("before Open"), std::string::npos);
}

TEST(ChunkVerifierLifecycleTest, Bsv024NextAfterExhaustion) {
  ChunkVerifier verifier;
  OperatorPtr op = Rows(IntCol(), IntRows(3));
  op->SetExecVerifier(&verifier);
  BORNSQL_ASSERT_OK(op->Open());
  DataChunk chunk;
  for (;;) {
    auto more = op->Next(&chunk);
    BORNSQL_ASSERT_OK(more.status());
    if (!*more) break;
  }
  auto r = op->Next(&chunk);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("BSV024"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("exhaustion"), std::string::npos);
  // Re-Open resets the lifecycle machine: the re-scan is legal.
  BORNSQL_ASSERT_OK(op->Open());
  auto again = op->Next(&chunk);
  BORNSQL_ASSERT_OK(again.status());
  EXPECT_TRUE(*again);
}

TEST(ChunkVerifierLifecycleTest, Bsv024NextAfterCloseAndIdempotentClose) {
  ChunkVerifier verifier;
  OperatorPtr op = Rows(IntCol(), IntRows(3));
  op->SetExecVerifier(&verifier);
  BORNSQL_ASSERT_OK(op->Open());
  op->Close();
  op->Close();  // idempotent by contract: not a violation
  EXPECT_EQ(verifier.stats().violations, 0u);
  DataChunk chunk;
  auto r = op->Next(&chunk);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("BSV024"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("after Close"), std::string::npos);
  EXPECT_EQ(verifier.stats().violations, 1u);
}

TEST(ChunkVerifierLifecycleTest, Bsv025CatchesADoubleRelease) {
  obs::MemoryTracker tracker("bsv025-test", "query", nullptr);
  ChunkVerifier verifier;
  OperatorPtr op = Rows(IntCol(), IntRows(10));
  op->SetMemoryTracker(&tracker);
  op->SetExecVerifier(&verifier);
  BORNSQL_ASSERT_OK(op->Open());
  ASSERT_GT(tracker.current(), 0u);
  // Simulate a double release: the tracker loses the bytes the operator
  // still believes it holds.
  tracker.Release(tracker.current());
  DataChunk chunk;
  auto r = op->Next(&chunk);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("BSV025"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("double release"), std::string::npos);
}

TEST(ChunkVerifierLifecycleTest, CleanDrainCountsChunksRowsAndChecks) {
  ChunkVerifier verifier;
  exec::FilterOp filter(Rows(IntCol(), IntRows(100)),
                        exec::BoundLiteral(Value::Int(1)));
  filter.SetVectorSize(16);
  filter.SetExecVerifier(&verifier);
  auto result = testing::DrainRows(filter);
  BORNSQL_ASSERT_OK(result.status());
  EXPECT_EQ(result->size(), 100u);
  const ChunkVerifierStats& stats = verifier.stats();
  EXPECT_EQ(stats.violations, 0u);
  // Two operators, 100 rows in 16-row chunks: 7 produced chunks each plus
  // a final empty pull each.
  EXPECT_EQ(stats.chunks_checked, 14u);
  EXPECT_EQ(stats.rows_checked, 200u);
  EXPECT_EQ(stats.boundaries_checked, 16u);
  EXPECT_GT(stats.checks_run, stats.boundaries_checked);
}

// ---------------------------------------------------------------------------
// Counter surfaces: born_stat_verifier and EXPLAIN VERIFY.
// ---------------------------------------------------------------------------

TEST(ChunkVerifierSurfaceTest, BornStatVerifierReportsLifetimeTotals) {
  engine::EngineConfig cfg;
  cfg.verify_chunks = true;
  engine::Database db(cfg);
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (1), (2), (3)"));
  MustQuery(db, "SELECT a FROM t WHERE a > 1");
  auto r = MustQuery(db, "SELECT * FROM born_stat_verifier");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.column_names,
            (std::vector<std::string>{"enabled", "queries_verified",
                                      "boundaries_checked", "chunks_checked",
                                      "rows_checked", "checks_run",
                                      "violations"}));
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);  // enabled
  EXPECT_GE(r.rows[0][1].AsInt(), 1);  // the SELECT above was verified
  EXPECT_GE(r.rows[0][3].AsInt(), 1);  // ...and produced checked chunks
  EXPECT_EQ(r.rows[0][6].AsInt(), 0);  // no violations
}

TEST(ChunkVerifierSurfaceTest, DisabledVerifierAccumulatesNothing) {
  engine::EngineConfig cfg;
  cfg.verify_chunks = false;
  engine::Database db(cfg);
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)"));
  MustQuery(db, "SELECT a FROM t");
  EXPECT_EQ(db.chunk_verified_queries(), 0u);
  EXPECT_EQ(db.chunk_verifier_totals().chunks_checked, 0u);
  auto r = MustQuery(db, "SELECT enabled FROM born_stat_verifier");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST(ChunkVerifierSurfaceTest, ExplainVerifyShowsChunkCounters) {
  engine::EngineConfig cfg;
  cfg.verify_chunks = true;
  engine::Database db(cfg);
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2)"));
  MustQuery(db, "SELECT a FROM t");
  auto r = MustQuery(db, "EXPLAIN VERIFY SELECT a FROM t WHERE a > 1");
  std::string chunk_line;
  for (const auto& row : r.rows) {
    const std::string& text = row[0].AsText();
    if (text.rfind("chunk verifier (BSV020-025): ", 0) == 0) {
      chunk_line = text;
    }
  }
  ASSERT_FALSE(chunk_line.empty());
  EXPECT_NE(chunk_line.find("on;"), std::string::npos) << chunk_line;
  EXPECT_NE(chunk_line.find("queries verified"), std::string::npos)
      << chunk_line;
  EXPECT_NE(chunk_line.find("0 violations"), std::string::npos) << chunk_line;
}

// ---------------------------------------------------------------------------
// SET knob contract: the verify_* settings are strict booleans.
// ---------------------------------------------------------------------------

class VerifyKnobTest : public ::testing::Test {
 protected:
  engine::Database db_;
};

TEST_F(VerifyKnobTest, VerifyChunksAcceptsZeroAndOneOnly) {
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_chunks = 1").status());
  EXPECT_TRUE(db_.config().verify_chunks);
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_chunks = 0").status());
  EXPECT_FALSE(db_.config().verify_chunks);
  for (const char* sql :
       {"SET born.verify_chunks = 2", "SET born.verify_chunks = -1",
        "SET born.verify_chunks = 'yes'", "SET born.verify_chunks = 0.5"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().ToString().find(
                  "accepted settings: 0 (off), 1 (on)"),
              std::string::npos)
        << r.status().ToString();
    EXPECT_FALSE(db_.config().verify_chunks) << "rejected SET must not arm";
  }
}

TEST_F(VerifyKnobTest, VerifyPlansAcceptsZeroAndOneOnly) {
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_plans = 1").status());
  EXPECT_TRUE(db_.config().verify_plans);
  for (const char* sql :
       {"SET born.verify_plans = 2", "SET born.verify_plans = 'on'"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().ToString().find(
                  "accepted settings: 0 (off), 1 (on)"),
              std::string::npos)
        << r.status().ToString();
    EXPECT_TRUE(db_.config().verify_plans) << "rejected SET must not disarm";
  }
}

TEST_F(VerifyKnobTest, VerifyRewritesAcceptsZeroAndOneOnly) {
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_rewrites = 0").status());
  EXPECT_FALSE(db_.config().verify_rewrites);
  for (const char* sql :
       {"SET born.verify_rewrites = 7", "SET born.verify_rewrites = 'off'"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().ToString().find(
                  "accepted settings: 0 (off), 1 (on)"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(VerifyKnobTest, UnknownSettingDiagnosticListsVerifyChunks) {
  auto r = db_.Execute("SET born.bogus = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("born.verify_chunks"),
            std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace bornsql::lint
