(** SLA (delay-bound) cost model for high-priority traffic
    (paper Eqs. 3–4).

    Units: capacities and loads in Mbps, delays in milliseconds, packet
    size in bits. *)

type params = {
  theta : float;  (** SLA delay bound, ms; paper default 25 ms *)
  a : float;  (** fixed penalty per violated SLA; paper: 100 *)
  b : float;  (** penalty per ms of excess delay; paper: 1 *)
  packet_size_bits : float;
      (** mean packet size [s] in Eq. (3); default 8000 (1000 bytes) *)
}

val default : params
(** [theta = 25.], [a = 100.], [b = 1.], [packet_size_bits = 8000.]. *)

val link_delay :
  params -> capacity:float -> phi_h:float -> prop_delay:float -> float
(** Mean delay of a link seen by high-priority traffic, Eq. (3):
    [s/C ⋅ (Φ_{H,l}/C + 1) + p_l], with [s/C] converted to ms.
    @raise Invalid_argument on a non-positive capacity. *)

val penalty : params -> delay:float -> float
(** Eq. (4): [0] when [delay <= theta], else [a + b⋅(delay − theta)];
    [infinity] for an infinite delay (a severed pair), whatever [b]
    is. *)

val violated : params -> delay:float -> bool
(** True when the delay exceeds the bound. *)

val with_relaxed_bound : params -> epsilon:float -> params
(** Loosen the bound to [(1 + epsilon) ⋅ theta] (§3.3.2).
    @raise Invalid_argument on [epsilon < 0.]. *)
