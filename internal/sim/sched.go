package sim

// makeReady transitions th to Ready, queues it by priority, and kicks an
// idle CPU.
func (k *Kernel) makeReady(th *Thread) {
	th.state = StateReady
	th.blockReason, th.blockSem = "", nil
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvWake, Label: th.name})
	}
	k.ready.insert(th)
	for _, c := range k.cpus {
		if c.th == nil {
			k.dispatchCPU(c)
			return
		}
	}
}

// removeReady deletes th from the run queue if present.
func (k *Kernel) removeReady(th *Thread) { k.ready.remove(th) }

// dispatchCPU assigns the head of the run queue to an idle CPU. The thread
// begins running after the context-switch latency.
func (k *Kernel) dispatchCPU(c *cpu) {
	if c.th != nil || k.ready.Len() == 0 {
		return
	}
	var th *Thread
	if k.cfg.Chooser != nil {
		th = k.chooseDispatch()
	} else {
		th = k.ready.popFront()
	}
	c.th = th
	th.cpu = c.id
	th.schedGen++
	k.armSlotAfter(c, slotStart, k.cfg.CtxSwitch, th, th.schedGen)
}

// startRun begins execution of th on c once the context switch completes.
func (k *Kernel) startRun(c *cpu, th *Thread, gen uint64) {
	if th.schedGen != gen || th.state != StateReady || c.th != th {
		return
	}
	th.state = StateRunning
	k.runningCnt++
	k.stats.Dispatches++
	th.runStart = k.now
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvDispatch, Label: th.name})
	}
	if k.cfg.Quantum > 0 {
		k.armSlotAfter(c, slotQuantum, k.cfg.Quantum, th, gen)
	}
	if th.computeLeft > 0 {
		k.scheduleWork(th)
	} else {
		k.wake(th)
	}
}

// quantumExpired implements round-robin preemption with strict priority:
// the running thread yields its CPU at quantum expiry only to a waiting
// thread of equal or better (lower) nice value. An attacker running at
// elevated priority therefore keeps its processor — effectively the
// "dedicated CPU" of the paper's multiprocessor attacks even on a loaded
// machine.
func (k *Kernel) quantumExpired(c *cpu, th *Thread, gen uint64) {
	if th.schedGen != gen || th.state != StateRunning || c.th != th {
		return
	}
	if k.ready.Len() == 0 || k.ready.front().nice > th.nice {
		// Nothing of sufficient priority wants the CPU: renew the slice.
		k.armSlotAfter(c, slotQuantum, k.cfg.Quantum, th, gen)
		return
	}
	k.preempt(th)
}

// preempt takes th off its CPU mid-quantum and re-queues it, preserving
// unfinished compute work. Must be called with th Running.
func (k *Kernel) preempt(th *Thread) {
	c := k.cpus[th.cpu]
	k.accrueWork(th)
	th.workPending = false
	th.state = StateReady
	k.runningCnt--
	k.stats.Preemptions++
	th.schedGen++
	th.cpu = -1
	c.th = nil
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvPreempt, Label: th.name, CPU: int32(c.id)})
	}
	k.ready.insert(th)
	k.dispatchCPU(c)
}

// blockCurrent transitions the currently running thread off its CPU into
// the Blocked state and lets the next ready thread run. Called inline from
// blocking primitives executing on the thread's own goroutine, immediately
// before the thread yields. A thread blocking on a semaphore passes it as
// sem and no reason: its "sem:" reason is built only when read.
func (k *Kernel) blockCurrent(th *Thread, reason string, sem *Sem) {
	c := k.cpus[th.cpu]
	k.accrueWork(th)
	th.workPending = false
	th.state = StateBlocked
	th.blockReason, th.blockSem = reason, sem
	k.runningCnt--
	th.schedGen++
	th.cpu = -1
	c.th = nil
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvBlock, Label: th.blockLabel(), CPU: int32(c.id)})
	}
	k.dispatchCPU(c)
}

// blockLabel is the reason a blocked thread waits.
func (th *Thread) blockLabel() string {
	if th.blockSem != nil {
		return "sem:" + th.blockSem.Name()
	}
	return th.blockReason
}

// scheduleWork arms the completion event for th's pending compute segment.
// th.runStart may be in the future when interrupt handling has pushed the
// resumption back. The register belongs to th's current CPU: only the
// running thread of a CPU has a live pending segment, so arming can only
// overwrite an entry whose generation guard already invalidated it.
func (k *Kernel) scheduleWork(th *Thread) {
	th.workPending = true
	th.workGen++
	doneAt := th.runStart.Add(th.computeLeft)
	k.armSlot(k.cpus[th.cpu], slotWork, doneAt, th, th.workGen)
}

// completeInline retires the running thread's fresh compute segment without
// routing it through the event queue, provided the completion provably
// precedes every other pending event. It replicates, in order, exactly what
// the queued path would do: scheduleWork's register arm (workGen, seq,
// lastAt), runLoop's pop of that register as the (at, seq) minimum (clock
// advance, step count), and workDone's retirement — after which the loop
// would hand control straight back to this thread with no other handler
// running in between. The strict doneAt < nextAt comparison mirrors the
// (at, seq) tie-break: the fresh arm carries the largest seq, so at an
// equal instant the queued event would fire first. Traced runs, a ghost
// work register (stale generation left by preemption, popped as a counted
// no-op by the queue), a pending user error, or a step budget about to trip
// all fall back to the queue so those paths stay byte-identical.
func (k *Kernel) completeInline(th *Thread) bool {
	doneAt := k.now.Add(th.computeLeft)
	if doneAt >= k.nextAt || doneAt > k.maxT || k.tracer != nil ||
		k.cpus[th.cpu].slots[slotWork].armed ||
		k.userErr != nil || k.steps >= k.cfg.MaxSteps {
		return false
	}
	th.workGen++
	k.seq++
	if doneAt > k.lastAt {
		k.lastAt = doneAt
	}
	k.now = doneAt
	k.steps++
	consumed := th.computeLeft
	th.cpuTime += consumed
	k.stats.addBusy(th.cpu, consumed)
	th.computeLeft = 0
	th.runStart = doneAt
	k.checkPost = true
	return true
}

// workDone fires when a compute segment finishes uninterrupted.
func (k *Kernel) workDone(th *Thread, gen uint64) {
	if th.workGen != gen || !th.workPending || th.state != StateRunning {
		return
	}
	consumed := th.computeLeft
	th.cpuTime += consumed
	k.stats.addBusy(th.cpu, consumed)
	th.computeLeft = 0
	th.workPending = false
	th.runStart = k.now
	if consumed > 0 && k.tracing() {
		k.emitThread(th, Event{Kind: EvCompute, Arg: int64(consumed)})
	}
	k.wake(th)
}

// timerWake fires when a timed block (sleep / simulated I/O) elapses. A
// stale wake-up — the thread was killed or its block canceled — is
// invalidated by the generation counter.
func (k *Kernel) timerWake(th *Thread, gen uint64) {
	if !th.timerArmed || th.timerGen != gen || th.state != StateBlocked {
		return
	}
	th.timerArmed = false
	k.timedCnt--
	k.makeReady(th)
}

// accrueWork charges the work executed since runStart against the pending
// compute segment and invalidates its scheduled completion event.
func (k *Kernel) accrueWork(th *Thread) {
	if !th.workPending {
		return
	}
	th.workGen++
	if k.now > th.runStart {
		consumed := k.now.Sub(th.runStart)
		if consumed > th.computeLeft {
			consumed = th.computeLeft
		}
		th.computeLeft -= consumed
		th.cpuTime += consumed
		k.stats.addBusy(th.cpu, consumed)
		if consumed > 0 && k.tracing() {
			k.emitThread(th, Event{Kind: EvCompute, Arg: int64(consumed)})
		}
	}
}
