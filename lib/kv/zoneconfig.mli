(** Zone configurations (§3.2, Listing 1) and their automatic derivation from
    table localities and survivability goals (§3.3).

    A zone configuration constrains, for one Range, the number of voting and
    total replicas, per-region replica counts, and the leaseholder region.
    Users of legacy CRDB wrote these by hand; the multi-region abstractions
    generate them. *)

type survival = Zone | Region

type placement = Default | Restricted
(** [Restricted] (§3.3.4): no replicas of regional tables outside the home
    region. Only valid with [Zone] survival. *)

type t = {
  num_voters : int;
  num_replicas : int;
  constraints : (string * int) list;
      (** minimum replicas (voting or not) per region *)
  voter_constraints : (string * int) list;  (** minimum voters per region *)
  lease_preferences : string list;  (** preferred leaseholder regions *)
}

val derive :
  regions:string list ->
  home:string ->
  survival:survival ->
  placement:placement ->
  t
(** [derive ~regions ~home ~survival ~placement] implements §3.3:

    - {b Zone survival}: 3 voters, all in [home] spread across zones; one
      non-voter in every other region (total [3 + (N-1)] replicas), unless
      [Restricted], in which case there are no non-voters at all.
    - {b Region survival}: 5 voters with 2 in [home];
      [max (2 + (N-1)) num_voters] total replicas with at least one in every
      region.

    The leaseholder is pinned to [home].
    @raise Invalid_argument on [Region] survival with fewer than 3 regions or
    with [Restricted] placement, or if [home] is not in [regions]. *)

val survival_to_string : survival -> string
