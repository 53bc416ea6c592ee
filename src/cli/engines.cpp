// `rioflow engines`: list the registered backends with their capability
// flags. --json writes the versioned rio.engines.v1 document the
// run_checks.sh smoke gate iterates over (docs/engines.md).
#include "cli/common.hpp"
#include "support/json.hpp"

namespace rio::cli {

int run_engines(const Options& o, std::ostream& out) {
  const engine::Registry& registry = engine::Registry::instance();
  const std::vector<const engine::Backend*> backends = registry.all();
  // Each item of `items` passed through `fmt`, joined with `sep`.
  const auto joined = [](const auto& items, const char* sep, auto fmt) {
    std::vector<std::string> parts;
    for (const auto& item : items) parts.push_back(fmt(item));
    return join(parts, sep);
  };

  out << "-- engines (" << backends.size() << " registered) --\n";
  support::Table table({"engine", "aliases", "capabilities", "description"});
  for (const engine::Backend* b : backends)
    table.row()
        .str(std::string(b->name()))
        .str(join(registry.aliases_for(b->name()), " "))
        .str(joined(engine::capability_list(b->caps()), " ",
                  [](const auto& cap) {
                    return cap.second ? std::string(cap.first) : "";
                  }))
        .str(std::string(b->description()));
  print_table(table, o.csv, out);

  write_report(o.json_path, out, [&](std::ostream& f) {
    f << "{\n  \"schema\": \"rio.engines.v1\",\n  \"engines\": [";
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const engine::Backend* b = backends[i];
      f << (i == 0 ? "\n" : ",\n") << "    {\"name\": "
        << support::json_quote(b->name()) << ", \"aliases\": ["
        << joined(registry.aliases_for(b->name()), ", ",
                [](const std::string& a) { return support::json_quote(a); })
        << "], \"description\": " << support::json_quote(b->description())
        << ", \"capabilities\": {"
        << joined(engine::capability_list(b->caps()), ", ",
                [](const auto& cap) {
                  return '"' + std::string(cap.first) +
                         "\": " + (cap.second ? "true" : "false");
                })
        << "}}";
    }
    f << (backends.empty() ? "]" : "\n  ]") << "\n}\n";
  });
  return 0;
}

}  // namespace rio::cli
