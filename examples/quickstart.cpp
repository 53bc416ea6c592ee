// Quickstart: the STF programming model on the RIO runtime in ~60 lines.
//
// Builds a small sequential task flow (a producer, parallel consumers, a
// reduction), compiles it into the image every engine runs, supplies the
// static mapping RIO requires, runs it on 4 workers and checks the result
// against the sequential semantics.
#include <cstdint>
#include <iostream>

#include "rio/rio.hpp"
#include "stf/stf.hpp"

using namespace rio;

int main() {
  // 1. Describe the computation as a sequential flow of tasks with
  //    declared data accesses. Dependencies are implicit (STF).
  stf::TaskFlow flow;
  auto input = flow.create_data<std::uint64_t>("input");
  auto partial = flow.create_data<std::uint64_t>("partial", 4);
  auto result = flow.create_data<std::uint64_t>("result");

  flow.add("produce",
           [input](stf::TaskContext& ctx) { ctx.scalar(input) = 10; },
           {stf::write(input)});

  for (std::uint32_t i = 0; i < 4; ++i) {
    flow.add("square+" + std::to_string(i),
             [input, partial, i](stf::TaskContext& ctx) {
               const std::uint64_t v =
                   ctx.scalar(input, stf::AccessMode::kRead) + i;
               ctx.get(partial)[i] = v * v;
             },
             {stf::read(input), stf::readwrite(partial)});
  }

  flow.add("reduce",
           [partial, result](stf::TaskContext& ctx) {
             const std::uint64_t* p =
                 ctx.get(partial, stf::AccessMode::kRead);
             std::uint64_t sum = 0;
             for (int i = 0; i < 4; ++i) sum += p[i];
             ctx.scalar(result) = sum;
           },
           {stf::read(partial), stf::write(result)});

  // 2. Compile the flow once into an image, the one input every engine
  //    runs, and supply the mapping TaskID -> WorkerID (Section 3.2 of the
  //    paper): here a simple round-robin; real applications use
  //    owner-computes maps (see the lu_solver example).
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const std::uint32_t workers = 4;
  rt::Runtime runtime(engine::Launch{.workers = workers});
  runtime.run(image, rt::mapping::round_robin(workers));

  const std::uint64_t got = *flow.registry().typed<std::uint64_t>(result);
  std::cout << "10^2 + 11^2 + 12^2 + 13^2 = " << got << "\n";

  // 3. Every execution model must agree with the sequential semantics.
  const std::uint64_t expect = 10 * 10 + 11 * 11 + 12 * 12 + 13 * 13;
  if (got != expect) {
    std::cerr << "MISMATCH: expected " << expect << "\n";
    return 1;
  }
  std::cout << "matches the sequential execution — OK\n";
  return 0;
}
