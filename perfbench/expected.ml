(* Committed ground truth for the full-size tune workloads, on the SGI
   R10000 model.  A winner is rendered as
   [variant | parameters | prefetch | MFLOPS], the four answer lines of
   [eco tune].

   mm128-exact and mm128-protocol tune the same cell (matmul n=128,
   800k-flop budget); the zero-rate fault protocol must not change the
   answer. *)
let mm128_winner = "matmul_v2 | ti=44 tj=45 tk=44 ui=4 uj=5 | a=4 b=2 p_a=1 | 300.8 MFLOPS"

(* The exact search's MFLOPS at the j3d64-sampled cell (jacobi3d n=64,
   800k-flop budget, no sampling): the sampled winner may fall at most
   [sampled_bound_pct] below it — the bound ci.sh applies to sampled
   tunes. *)
let j3d64_exact_mflops = 28.9
let sampled_bound_pct = 2.0
