// Package qaoaml is a from-scratch Go reproduction of "Accelerating
// Quantum Approximate Optimization Algorithm using Machine Learning"
// (Alam, Ash-Saki, Ghosh — DATE 2020, arXiv:2002.01089).
//
// The paper's contribution — predicting good initial QAOA gate
// parameters for a depth-pt MaxCut instance from the optimized depth-1
// parameters with a regression model, cutting optimization-loop
// iterations by ~45% on average — lives in internal/core. Every
// substrate the paper depends on is implemented here as well:
//
//   - internal/quantum  — exact state-vector simulator (replaces QuTiP)
//   - internal/problem  — Ising/QUBO instances and the five family compilers
//   - internal/qaoa     — QAOA on a compiled instance: expectation, adjoint gradient, AR
//   - internal/graph    — Erdős–Rényi / regular graphs, exact MaxCut
//   - internal/optimize — L-BFGS-B, Nelder-Mead, SLSQP, COBYLA (replaces SciPy)
//   - internal/ml       — GPR, linear, tree, SVR regression (replaces MATLAB)
//   - internal/linalg   — dense linear algebra (Cholesky, LU)
//   - internal/stats    — descriptive statistics and correlations
//   - internal/telemetry — counters, histograms, spans, iteration traces
//   - internal/experiments — one runner per paper table/figure
//   - internal/server   — the HTTP solve service behind cmd/qaoad
//   - internal/cluster  — write-ahead log, hash ring and dispatch of a fleet
//
// The cmd/qaoaml command regenerates every table and figure and
// cmd/qaoad serves solves over HTTP; see README.md, DESIGN.md and
// EXPERIMENTS.md. The benchmarks in bench_test.go cover each experiment
// plus the ablations listed in DESIGN.md, "Design choices worth
// ablating".
package qaoaml
