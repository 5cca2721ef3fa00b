(** Minimum-priority queue over float keys (binary heap).

    Used by the discrete-event simulator's calendar ([Dtr_netsim.Sim]);
    Dijkstra runs on [Bucket_queue].  Insertion order breaks ties,
    making runs deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> float -> 'a -> unit
(** [add q key v] inserts [v] with priority [key]. *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the entry with the smallest key; ties are broken
    by insertion order (FIFO). *)

val peek_min : 'a t -> (float * 'a) option

val clear : 'a t -> unit
