(** One schema-versioned QoR record: everything a {!Ledger} line or a
    {!Baseline} entry stores about one flow run.

    The schema evolves by {e addition}: {!of_json} fills fields a record
    written by older code lacks with neutral defaults ([nan] for scalars,
    [0] for counts, [[]] for rule sets) and ignores fields it does not
    know, so new code reads old ledgers and vice versa.  A record whose
    [schema_version] is {e newer} than {!schema_version} still parses —
    the skew is the caller's to surface ({!Compare} downgrades such
    comparisons to warnings). *)

type t = {
  schema_version : int;
  label : string;              (** ["spiral b8"] — the comparison key *)
  style : string;
  bits : int;
  tech_name : string;
  tech_hash : string;          (** {!tech_hash} of the process used *)
  repeat : int;                (** runs the timings are a median of *)
  jobs : int;                  (** worker count the run was recorded at *)
  par_speedup : float;         (** measured {!Ccdac.Parbench} speedup at
                                   [jobs] ([nan] when not measured) *)
  stage_s : (string * float) list;  (** per-stage seconds, execution order *)
  place_route_s : float;       (** Table III runtime (place + route) *)
  stage_alloc_mb : (string * float) list;
                               (** per-stage allocated MB — empty unless
                                   {!Telemetry.Memory} sampling was on *)
  alloc_mb_total : float;      (** whole-flow allocation, MB ([nan] when
                                   not sampled) *)
  peak_heap_mb : float;        (** peak major heap, MB ([nan] when not
                                   sampled) *)
  major_collections : int;     (** whole-flow major GCs (0 when not
                                   sampled) *)
  f3db_mhz : float;
  max_inl_lsb : float;
  max_dnl_lsb : float;
  tau_fs : float;
  critical_bit : int;
  via_cuts : int;              (** total physical via cuts *)
  bends : int;
  wirelength_um : float;
  area_um2 : float;
  verify_rules : string list;  (** sorted rule ids fired by the linter *)
  lvs_rules : string list;     (** sorted rule ids fired by LVS *)
  stage_exponent : (string * float) list;
                               (** fitted per-stage growth exponents from
                                   a {!Ccdac.Scaling} ladder — empty for
                                   a plain flow record *)
  sched_utilization : float;   (** {!Par.Sched} pool busy fraction over
                                   the run ([nan] when not recorded) *)
  sched_caller_blocked_s : float;
                               (** caller time spent joining spawned
                                   domains with no chunk left to claim
                                   ([nan] when not recorded) *)
  provenance : Provenance.t;
}

(** The version this code writes. *)
val schema_version : int

(** [label ~style ~bits] is the comparison key, e.g. ["spiral b8"]. *)
val label : style:string -> bits:int -> string

(** [tech_hash tech] is a 16-hex-digit FNV-1a digest of every field of
    the process description (stack included).  Two records with equal
    hashes were measured under the same technology. *)
val tech_hash : Tech.Process.t -> string

(** [of_result ?repeat ?jobs ?par_speedup r] captures a record from a
    flow result, re-runs the registry linter and LVS to collect the fired
    rule-id sets, and stamps provenance.  [repeat] (default 1) documents
    how many runs the timings were medianed over; [jobs] (default 1) the
    worker count; [par_speedup] (default [nan]) a measured
    {!Ccdac.Parbench} speedup — none of them rerun anything. *)
val of_result :
  ?repeat:int -> ?jobs:int -> ?par_speedup:float -> Ccdac.Flow.result -> t

(** [with_scaling ?stage_exponent ?sched_utilization
    ?sched_caller_blocked_s t] decorates a record with the scaling-probe
    and scheduler figures ({!Ccdac.Scaling}, {!Par.Sched.summary});
    omitted arguments keep the neutral "not sampled" defaults. *)
val with_scaling :
  ?stage_exponent:(string * float) list ->
  ?sched_utilization:float ->
  ?sched_caller_blocked_s:float ->
  t ->
  t

val to_json : t -> Telemetry.Json.t

(** Total modulo shape: [Error] only when the value is not an object.
    Missing fields decay to neutral defaults as described above. *)
val of_json : Telemetry.Json.t -> (t, string) result
