package optimize

// BatchFunc evaluates the same objective at several independent points
// and returns the values in input order. Implementations may evaluate
// the points concurrently (qaoa.BatchEvaluator does, on per-worker
// workspaces) but must return exactly the values serial evaluation
// would, so optimizers that batch their probe evaluations stay
// bit-identical to their serial form. Objectives over large quantum
// registers already parallelize inside their kernels (chunked gates and
// reductions); such implementations should evaluate points serially
// rather than stack a second layer of workers on oversubscribed cores
// — qaoa.BatchEvaluator collapses to one worker above the kernel
// parallelism threshold for exactly this reason.
type BatchFunc func(points [][]float64) []float64
