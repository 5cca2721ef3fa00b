(** Gravity-model traffic generation for the low-priority class
    (paper Eqs. 6–7).

    Each node [s] originates a total demand [d_s] drawn from a
    three-level mixture (low 60%, medium 35%, hot-spot 5%), spread over
    destinations [t ≠ s] proportionally to [exp(V_t)] where the node
    "mass" [V_t] is uniform on [1, 1.5]. *)

type params = {
  demand_levels : (float * float * float) array;
      (** [(probability, lo, hi)] bands for the per-node total demand
          [d_s]; paper: [(0.6, 10, 50); (0.35, 80, 130); (0.05, 150, 200)] *)
  mass_range : float * float;  (** range of [V_t]; paper: [1, 1.5] *)
}

val default : params
(** The paper's Eq. (7) setting. *)

val generate : Dtr_util.Prng.t -> n:int -> params -> Matrix.t
(** Positive demand between every ordered pair (gravity models are
    dense): {!generate_pop} with every node a PoP, in id order, draw
    for draw.  @raise Invalid_argument if [n < 2] or the parameters are
    malformed. *)

val generate_pop :
  Dtr_util.Prng.t -> n:int -> pops:int array -> params -> Matrix.t
(** The same gravity model restricted to the given PoP nodes: an
    [n × n] matrix with positive demand between every ordered pair of
    distinct PoPs and zero elsewhere — the realistic shape of an ISP
    matrix at 1k–10k nodes, and the input the demand-only evaluation
    mode is sized for.  @raise Invalid_argument on fewer than 2 PoPs,
    a PoP out of range, or malformed parameters. *)
