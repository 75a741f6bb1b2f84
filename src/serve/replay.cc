#include "serve/replay.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "serve/server.h"
#include "util/random.h"
#include "util/timer.h"

namespace skyup {

namespace {

constexpr char kHeaderPrefix[] = "# skyup serve workload dims=";

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::vector<std::string> SplitCommas(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

Status ParseDouble(const std::string& field, double* out) {
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad numeric field '" + field + "'");
  }
  return Status::OK();
}

Status ParseUint(const std::string& field, uint64_t* out) {
  if (field.empty()) return Status::InvalidArgument("empty integer field");
  uint64_t value = 0;
  for (char c : field) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad integer field '" + field + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return Status::OK();
}

}  // namespace

Result<ReplayWorkload> ParseWorkload(const std::string& text) {
  ReplayWorkload workload;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind(kHeaderPrefix, 0) == 0) {
        uint64_t dims = 0;
        Status st = ParseUint(line.substr(sizeof(kHeaderPrefix) - 1), &dims);
        if (!st.ok() || dims == 0) {
          return Status::InvalidArgument("bad workload header: " + line);
        }
        workload.dims = static_cast<size_t>(dims);
        saw_header = true;
      }
      continue;
    }
    if (!saw_header) {
      return Status::InvalidArgument(
          "workload must start with '" + std::string(kHeaderPrefix) + "D'");
    }
    const std::vector<std::string> fields = SplitCommas(line);
    const std::string& tag = fields[0];
    ReplayOp op;
    if (tag == "ip" || tag == "it") {
      op.kind = tag == "ip" ? ReplayOpKind::kInsertCompetitor
                            : ReplayOpKind::kInsertProduct;
      if (fields.size() != workload.dims + 1) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": insert expects " +
            std::to_string(workload.dims) + " coords");
      }
      op.coords.reserve(workload.dims);
      for (size_t i = 1; i < fields.size(); ++i) {
        double v = 0.0;
        Status st = ParseDouble(fields[i], &v);
        if (!st.ok()) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ": " + st.message());
        }
        op.coords.push_back(v);
      }
    } else if (tag == "ep" || tag == "et") {
      op.kind = tag == "ep" ? ReplayOpKind::kEraseCompetitor
                            : ReplayOpKind::kEraseProduct;
      if (fields.size() != 2) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": erase expects one id");
      }
      Status st = ParseUint(fields[1], &op.id);
      if (!st.ok() || op.id == 0) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": bad erase id");
      }
    } else if (tag == "q") {
      op.kind = ReplayOpKind::kQuery;
      if (fields.size() != 2) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": query expects one k");
      }
      uint64_t k = 0;
      Status st = ParseUint(fields[1], &k);
      if (!st.ok() || k == 0) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": bad query k");
      }
      op.k = static_cast<size_t>(k);
    } else {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": unknown op tag '" + tag +
          "'");
    }
    workload.ops.push_back(std::move(op));
  }
  if (!saw_header) {
    return Status::InvalidArgument("workload is empty (no header)");
  }
  return workload;
}

Result<ReplayWorkload> ReadWorkloadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open workload file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseWorkload(buffer.str());
}

Status GenerateWorkload(uint64_t seed, size_t num_ops, size_t dims,
                        std::ostream& out) {
  if (dims < 1) return Status::InvalidArgument("dims must be >= 1");
  if (num_ops < 1) return Status::InvalidArgument("num_ops must be >= 1");
  Rng rng(seed);
  // Mirror the server's id allocation (each table counts up from 1) so
  // erases can name live ids without running a server here.
  std::vector<uint64_t> live_p;
  std::vector<uint64_t> live_t;
  uint64_t next_p = 1;
  uint64_t next_t = 1;
  out << kHeaderPrefix << dims << "\n";
  auto emit_insert = [&](bool competitor) {
    out << (competitor ? "ip" : "it");
    for (size_t d = 0; d < dims; ++d) out << ',' << Num(rng.NextDouble());
    out << "\n";
    if (competitor) {
      live_p.push_back(next_p++);
    } else {
      live_t.push_back(next_t++);
    }
  };
  auto take_random = [&](std::vector<uint64_t>* ids) {
    const size_t at = static_cast<size_t>(rng.NextUint64(ids->size()));
    const uint64_t id = (*ids)[at];
    (*ids)[at] = ids->back();
    ids->pop_back();
    return id;
  };
  for (size_t i = 0; i < num_ops; ++i) {
    const uint64_t roll = rng.NextUint64(100);
    if (roll < 35) {
      emit_insert(/*competitor=*/true);
    } else if (roll < 50) {
      emit_insert(/*competitor=*/false);
    } else if (roll < 65) {
      if (live_p.empty()) {
        emit_insert(/*competitor=*/true);
      } else {
        out << "ep," << take_random(&live_p) << "\n";
      }
    } else if (roll < 75) {
      if (live_t.empty()) {
        emit_insert(/*competitor=*/false);
      } else {
        out << "et," << take_random(&live_t) << "\n";
      }
    } else {
      out << "q," << (1 + rng.NextUint64(10)) << "\n";
    }
  }
  if (!out) return Status::IOError("workload write failed");
  return Status::OK();
}

Result<ReplayReport> Replay(Server* server, const ReplayWorkload& workload,
                            std::ostream& out) {
  if (server == nullptr) return Status::InvalidArgument("null server");
  if (server->options().background_rebuild) {
    return Status::InvalidArgument(
        "replay requires deterministic mode (background_rebuild=false)");
  }
  if (server->options().dims != workload.dims) {
    return Status::InvalidArgument(
        "workload dims " + std::to_string(workload.dims) +
        " do not match server dims " +
        std::to_string(server->options().dims));
  }
  ReplayReport report;
  Timer wall;
  // One result block per query, identical whether the query ran solo or
  // grouped (TopKShardedBatch gives each member exactly its solo answer,
  // so the batch_max setting must not change the log bytes — CI compares
  // every replay against bench/workloads/serve_1k.expected).
  auto emit_query_block = [&](size_t k, const QueryResponse& response) {
    ++report.queries;
    // Deliberately no wall times or epochs here: everything printed is a
    // pure function of the op stream, so two replays must be
    // byte-identical.
    out << "query " << report.queries << " k=" << k
        << " results=" << response.results.size() << "\n";
    for (size_t r = 0; r < response.results.size(); ++r) {
      const UpgradeResult& res = response.results[r];
      out << "  " << (r + 1) << " id=" << res.product_id
          << " cost=" << Num(res.cost) << " upgraded=";
      for (size_t d = 0; d < res.upgraded.size(); ++d) {
        if (d > 0) out << ';';
        out << Num(res.upgraded[d]);
      }
      out << "\n";
    }
  };
  const size_t batch_cap = server->options().batch_max;
  size_t op_no = 0;
  for (size_t op_at = 0; op_at < workload.ops.size(); ++op_at) {
    const ReplayOp& op = workload.ops[op_at];
    ++op_no;
    // Grouped path: a run of consecutive queries (no update between them
    // sees the same live state) executes as one shared traversal.
    if (op.kind == ReplayOpKind::kQuery && batch_cap > 1) {
      size_t run = 1;
      while (run < batch_cap && op_at + run < workload.ops.size() &&
             workload.ops[op_at + run].kind == ReplayOpKind::kQuery) {
        ++run;
      }
      std::vector<QueryRequest> requests(run);
      for (size_t i = 0; i < run; ++i) {
        requests[i].k = workload.ops[op_at + i].k;
      }
      const std::vector<QueryResponse> responses = server->QueryBatch(requests);
      for (size_t i = 0; i < run; ++i) {
        if (!responses[i].status.ok()) {
          return Status::Internal(
              "op " + std::to_string(op_no + i) +
              ": query failed: " + responses[i].status.message());
        }
        emit_query_block(requests[i].k, responses[i]);
      }
      op_at += run - 1;
      op_no += run - 1;
      continue;
    }
    switch (op.kind) {
      case ReplayOpKind::kInsertCompetitor: {
        Result<uint64_t> id = server->InsertCompetitor(op.coords);
        if (!id.ok()) {
          return Status::InvalidArgument(
              "op " + std::to_string(op_no) +
              ": insert rejected: " + id.status().message());
        }
        ++report.inserts_p;
        break;
      }
      case ReplayOpKind::kInsertProduct: {
        Result<uint64_t> id = server->InsertProduct(op.coords);
        if (!id.ok()) {
          return Status::InvalidArgument(
              "op " + std::to_string(op_no) +
              ": insert rejected: " + id.status().message());
        }
        ++report.inserts_t;
        break;
      }
      case ReplayOpKind::kEraseCompetitor:
      case ReplayOpKind::kEraseProduct: {
        const bool competitor = op.kind == ReplayOpKind::kEraseCompetitor;
        Status st = competitor ? server->EraseCompetitor(op.id)
                               : server->EraseProduct(op.id);
        if (!st.ok()) {
          return Status::InvalidArgument(
              "op " + std::to_string(op_no) +
              ": erase rejected: " + st.message());
        }
        if (competitor) {
          ++report.erases_p;
        } else {
          ++report.erases_t;
        }
        break;
      }
      case ReplayOpKind::kQuery: {
        QueryRequest request;
        request.k = op.k;
        QueryResponse response = server->Query(request);
        if (!response.status.ok()) {
          return Status::Internal(
              "op " + std::to_string(op_no) +
              ": query failed: " + response.status.message());
        }
        emit_query_block(op.k, response);
        break;
      }
    }
  }
  // The epoch is the common cross-shard epoch and the backlog is the
  // total across shards — both are independent of the shard count for
  // the same op stream (synchronized publish cycles fire on the total
  // backlog), so the `# replay:` summary agrees across `--shards` values
  // too.
  report.final_epoch = server->CurrentEpoch();
  report.final_backlog = server->DeltaBacklog();
  report.wall_seconds = wall.ElapsedSeconds();
  if (!out) return Status::IOError("result write failed");
  return report;
}

}  // namespace skyup
