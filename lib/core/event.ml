type thread_id = int
type lock_id = int
type loc_id = int
type site_id = int

type kind = Read | Write

type thread_info = Thread of thread_id | Bot | Top

(* The reference set representation, re-exported for construction,
   rendering and tests; the event itself carries an interned id. *)
module Lockset = Lockset

type t = {
  loc : loc_id;
  thread : thread_id;
  locks : Lockset_id.id;
  kind : kind;
  site : site_id;
}

let make ~loc ~thread ~locks ~kind ~site =
  { loc; thread; locks = Lockset_id.intern locks; kind; site }

let make_interned ~loc ~thread ~locks ~kind ~site =
  { loc; thread; locks; kind; site }

let lockset e = Lockset_id.set_of e.locks

let equal e1 e2 =
  e1.loc = e2.loc && e1.thread = e2.thread && e1.kind = e2.kind
  && e1.site = e2.site
  && Lockset_id.equal e1.locks e2.locks

let is_race e1 e2 =
  e1.loc = e2.loc
  && e1.thread <> e2.thread
  && Lockset_id.disjoint e1.locks e2.locks
  && (e1.kind = Write || e2.kind = Write)

let kind_leq a1 a2 = a1 = Write || a1 = a2

let thread_leq t1 t2 = t1 = Bot || t1 = t2

let kind_meet a1 a2 = if a1 = a2 then a1 else Write

let thread_meet t1 t2 =
  match (t1, t2) with
  | Top, t | t, Top -> t
  | Thread i, Thread j when i = j -> t1
  | _ -> Bot

let weaker_than p q =
  p.loc = q.loc
  && Lockset_id.subset p.locks q.locks
  && p.thread = q.thread
  && kind_leq p.kind q.kind

let pp_kind ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"

let pp_thread_info ppf = function
  | Thread i -> Fmt.pf ppf "T%d" i
  | Bot -> Fmt.string ppf "t_bot"
  | Top -> Fmt.string ppf "t_top"

let pp ppf e =
  Fmt.pf ppf "(m=%d, t=T%d, L=%a, a=%a, s=%d)" e.loc e.thread Lockset_id.pp
    e.locks pp_kind e.kind e.site
