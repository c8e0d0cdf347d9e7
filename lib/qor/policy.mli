(** Per-metric tolerance policies: what counts as a regression.

    Three families, matching how each metric behaves:

    - {b Rel}: continuous metrics (f3dB, area, wirelength, allocation).
      A change is judged {e relative} to the baseline, with a noise
      floor: values whose magnitudes both sit at or under the floor
      compare equal, and the relative denominator never drops below the
      floor, so microscopic baselines cannot turn dust into
      percentages.
    - {b Abs}: deterministic analytic metrics with a meaningful unit
      (INL/DNL in LSB) — an absolute tolerance in that unit.
    - {b Exact}: integers and id sets (via cuts, fired rule ids).  Any
      drift is a verdict; the baseline must be regenerated to bless an
      intentional change.

    Thresholds are {e inclusive}: a change of exactly the tolerance is
    [Unchanged] — regression means strictly beyond the stated tolerance.
    A NaN on either side (e.g. a field missing from an old-schema
    record) is [Incomparable], never silently equal. *)

(** Which direction is good.  [Neither] means any drift is bad. *)
type sense =
  | Higher_better   (** e.g. f3dB *)
  | Lower_better    (** e.g. runtime, |INL| *)
  | Neither

type kind =
  | Rel of {
      tol : float;           (** allowed fractional change, e.g. 0.02 *)
      floor : float;         (** noise floor in the metric's unit *)
    }
  | Abs of { tol : float }   (** allowed absolute change *)
  | Exact_count
  | Exact_set

type t = {
  id : string;               (** verdict id, e.g. ["qor/f3db_mhz"] *)
  metric : string;           (** human name, e.g. ["f3dB"] *)
  unit_ : string;
  kind : kind;
  sense : sense;
  severity : Diag.severity;  (** [Error] fails the gate outright;
                                [Warning] fails under [--werror] *)
}

(** What a policy is judged over. *)
type observation =
  | Scalar of float
  | Count of int
  | Set of string list       (** compared as a sorted set *)

type verdict =
  | Improved
  | Unchanged
  | Regressed
  | Incomparable             (** NaN, or observation kinds disagree *)

val verdict_name : verdict -> string

(** [judge policy ~baseline ~current] applies the policy and explains
    itself: the returned string states the values and the threshold that
    decided. *)
val judge :
  t -> baseline:observation -> current:observation -> verdict * string

(** The committed policy catalogue — one entry per compared metric, ids
    under [qor/].  Documented as a table in docs/QOR.md; keep in sync. *)
val catalogue : t list

val find : string -> t option
