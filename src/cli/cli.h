#ifndef SKYUP_CLI_CLI_H_
#define SKYUP_CLI_CLI_H_

// The `skyup` command-line tool: workload generation, skyline queries, and
// top-k product upgrading over CSV files. The driver is a library function
// so tests can run commands against in-memory streams.
//
//   skyup generate --out=P.csv --count=100000 --dims=3 --dist=anti
//   skyup wine     --out=wine.csv
//   skyup skyline  --in=P.csv
//   skyup topk     --competitors=P.csv --products=T.csv --k=5
//                  --algorithm=join --lb=clb
//
// CSV files are headerless numeric tables, one product per row.

#include <ostream>
#include <string>
#include <vector>

namespace skyup {
namespace cli {

/// Executes one CLI invocation. `args` excludes the program name. Normal
/// output goes to `out`, diagnostics to `err`. Returns a process exit
/// code (0 on success, 2 on usage errors, 1 on runtime failures).
int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace cli
}  // namespace skyup

#endif  // SKYUP_CLI_CLI_H_
