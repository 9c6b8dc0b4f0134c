// Package repro is a production-quality Go reproduction of "Node-disjoint
// paths in hierarchical hypercube networks" (IPPS/IPDPS 2006): a complete
// implementation of the hierarchical hypercube interconnection network
// HHC_n together with a constructive algorithm that builds the maximum
// number m+1 of node-disjoint paths between any two nodes, in time
// polynomial in the address length and independent of the 2^n network size.
//
// The repository layout:
//
//	internal/hypercube  — the Q_k substrate: Gray codes, rotation/detour
//	                      disjoint paths, fans, set-visiting walks
//	internal/hhc        — HHC topology, addressing, provably shortest routing
//	internal/core       — the paper's contribution: the (m+1)-container
//	internal/flow       — max-flow / min-cost-flow baseline (Menger)
//	internal/graph      — implicit-graph BFS/diameter ground truth
//	internal/netsim     — discrete-event store-and-forward simulator
//	internal/exp        — the evaluation harness (tables/figures E1..E17,
//	                      E20..E22)
//	cmd/…               — hhcinfo, hhcpaths, hhcbench, hhcsim, hhcbcast,
//	                      hhcviz
//	examples/…          — runnable demonstrations of the public API
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// per-experiment index, and EXPERIMENTS.md for measured results.
//
// The Benchmark functions in bench_test.go regenerate each experiment:
//
//	go test -bench=E3 -benchmem .
package repro
