(* A binary min-heap keyed by (time, seq) pairs, kept in parallel unboxed
   arrays — a [float array] and an [int array] — beside the payload
   array, so ordering an element costs two flat array reads and an
   inlined compare: no closure call, no boxed float per element, no
   [option] allocation on the pop path. Payload slots freed by
   [pop_min]/[compact] are overwritten with the dummy element so dead
   payloads are never retained.

   It sifts with a "hole" rather than by swapping: the moving element is
   held aside while ancestors (or descendants) shift into the hole, and
   is written exactly once at its final position. The comparison
   sequence — and therefore the resulting array layout and pop order — is
   identical to the classic swap formulation, so the hole costs nothing
   in reproducibility and saves two writes per level. *)

module Timed = struct
  type 'a t = {
    dummy : 'a;
    mutable times : float array;
    mutable seqs : int array;
    mutable data : 'a array;
    mutable size : int;
  }

  let create ~dummy () =
    { dummy; times = [||]; seqs = [||]; data = [||]; size = 0 }

  let length t = t.size
  let is_empty t = t.size = 0
  let capacity t = Array.length t.times

  let grow t =
    let cap = Array.length t.times in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let ntimes = Array.make ncap 0. in
      let nseqs = Array.make ncap 0 in
      let ndata = Array.make ncap t.dummy in
      Array.blit t.times 0 ntimes 0 t.size;
      Array.blit t.seqs 0 nseqs 0 t.size;
      Array.blit t.data 0 ndata 0 t.size;
      t.times <- ntimes;
      t.seqs <- nseqs;
      t.data <- ndata
    end

  (* (time, seq) lexicographic order; seq is expected to be unique, so
     the order is total and pop order is fully deterministic. *)

  let push t ~time ~seq x =
    grow t;
    let times = t.times and seqs = t.seqs and data = t.data in
    let i = ref t.size in
    t.size <- t.size + 1;
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let p = (!i - 1) / 2 in
      let tp = times.(p) in
      if tp > time || (tp = time && seqs.(p) > seq) then begin
        times.(!i) <- tp;
        seqs.(!i) <- seqs.(p);
        data.(!i) <- data.(p);
        i := p
      end
      else continue_ := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    data.(!i) <- x

  let min_time t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.min_time: empty heap";
    t.times.(0)

  let min_seq t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.min_seq: empty heap";
    t.seqs.(0)

  let peek_min t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.peek_min: empty heap";
    t.data.(0)

  (* Sift the (time, seq, payload) triple down from the hole at [i],
     assuming children below [i] already satisfy the heap property. *)
  let sift_down t i ~mtime ~mseq ~mx =
    let times = t.times and seqs = t.seqs and data = t.data in
    let n = t.size in
    let i = ref i in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < mtime || (times.(c) = mtime && seqs.(c) < mseq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          data.(!i) <- data.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    times.(!i) <- mtime;
    seqs.(!i) <- mseq;
    data.(!i) <- mx

  let pop_min t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.pop_min: empty heap";
    let data = t.data in
    let top = data.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let mtime = t.times.(n) and mseq = t.seqs.(n) and mx = data.(n) in
      data.(n) <- t.dummy;
      sift_down t 0 ~mtime ~mseq ~mx
    end
    else data.(0) <- t.dummy;
    top

  (* Drop every element [keep] rejects, then re-establish the heap
     property bottom-up in O(n). Survivors keep their (time, seq) keys,
     so the pop order of the survivors is unchanged. *)
  let compact t ~keep =
    let n = t.size in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep ~seq:t.seqs.(i) t.data.(i) then begin
        if !j < i then begin
          t.times.(!j) <- t.times.(i);
          t.seqs.(!j) <- t.seqs.(i);
          t.data.(!j) <- t.data.(i)
        end;
        incr j
      end
    done;
    for i = !j to n - 1 do
      t.data.(i) <- t.dummy
    done;
    t.size <- !j;
    for i = ((!j - 2) / 2) downto 0 do
      let mtime = t.times.(i) and mseq = t.seqs.(i) and mx = t.data.(i) in
      sift_down t i ~mtime ~mseq ~mx
    done

  let clear t =
    t.times <- [||];
    t.seqs <- [||];
    t.data <- [||];
    t.size <- 0
end
