//! Goroutine machine stacks and the user-space switch between them.
//!
//! All of the workspace's `unsafe` is here and where `kernel.rs` calls into
//! this module. It owns two things: [`Coro`], a goroutine's machine stack together with the stack
//! pointer it was last suspended at, and [`switch`], which suspends the
//! running context and resumes another. The kernel decides *who* runs
//! (`kernel.rs`); nothing here knows about goroutines, schedules or events.
//!
//! A stack is [`STACK_BYTES`] of anonymous memory above one `PROT_NONE`
//! guard page, so running off its end faults instead of writing into a
//! neighbour. The kernel commits pages as they are touched. Stacks are
//! recycled through a bounded per-OS-thread pool (a short program's
//! goroutines reuse the stacks of the previous run, still warm) and are
//! unmapped when the pool is full and when the thread exits.
//!
//! # Porting
//!
//! [`switch`] and [`trampoline`] are the only target-specific code: save the
//! ABI's callee-saved registers on the running stack, store the stack
//! pointer, load the other one, restore, return; and give a fresh stack a
//! first frame that "returns" into a call of `entry(arg)`. `initial_frame`
//! must match the order `switch` restores in. The floating-point control
//! words (`mxcsr`, the x87 control word) are callee-saved too but are not
//! switched: every goroutine of a run shares one OS thread and nothing in
//! the workspace changes them.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "grs-runtime switches goroutine stacks in user space and `coro::switch` (with the \
     trampoline and first frame beside it) is written for x86_64 Linux only; a port to \
     another target writes that one function for its calling convention"
);

use std::cell::RefCell;
use std::ffi::{c_int, c_void};
use std::ptr;

/// Usable bytes of one goroutine stack — what a spawned OS thread gets by
/// default, so programs see the depth they always had.
const STACK_BYTES: usize = 2 << 20;

/// The inaccessible page below every stack.
const GUARD_BYTES: usize = 4096;

/// Most stacks an OS thread keeps mapped for reuse. Covers the goroutines
/// of any corpus or pattern program; a wider fan-out maps and unmaps the
/// excess.
const POOL_CAP: usize = 64;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_STACK: c_int = 0x2_0000;
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// Maps a fresh stack and returns the base of the mapping (the guard page).
///
/// # Panics
///
/// When the address space or the process's mapping count is exhausted, as
/// a thread spawn would.
fn map_stack() -> *mut u8 {
    // SAFETY: an anonymous private mapping at an address of the kernel's
    // choosing aliases no existing memory; the result is checked below.
    let base = unsafe {
        mmap(
            ptr::null_mut(),
            GUARD_BYTES + STACK_BYTES,
            PROT_NONE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK,
            -1,
            0,
        )
    };
    assert!(base != MAP_FAILED, "failed to map a goroutine stack");
    let base = base.cast::<u8>();
    // SAFETY: the range lies inside the mapping just created, which nothing
    // else refers to yet.
    let rc = unsafe {
        mprotect(
            base.add(GUARD_BYTES).cast(),
            STACK_BYTES,
            PROT_READ | PROT_WRITE,
        )
    };
    assert!(rc == 0, "failed to make a goroutine stack writable");
    base
}

fn unmap_stack(base: *mut u8) {
    // SAFETY: `base` came from `map_stack` and its one owner (a `Coro` or
    // the pool) is giving it up, so no context runs on or points into it.
    // A failure leaves the mapping in place, which leaks but is sound.
    let _ = unsafe { munmap(base.cast(), GUARD_BYTES + STACK_BYTES) };
}

/// Idle stacks of the current OS thread, unmapped when the thread exits.
struct Pool(Vec<*mut u8>);

impl Drop for Pool {
    fn drop(&mut self) {
        for base in self.0.drain(..) {
            unmap_stack(base);
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool(Vec::new())) };
}

/// Where a suspended context resumes: the stack pointer [`switch`] saved
/// for it (or `initial_frame` made up). Meaningless while the context runs.
#[repr(transparent)]
#[derive(Clone, Copy)]
pub(crate) struct SavedSp(*mut u8);

impl SavedSp {
    /// A slot for [`switch`] to save into.
    pub(crate) const EMPTY: SavedSp = SavedSp(ptr::null_mut());
}

/// A goroutine's machine context: its stack and, while it is not running,
/// where on it to resume.
pub(crate) struct Coro {
    /// Base of the mapping (the guard page).
    base: *mut u8,
    sp: SavedSp,
}

// What a *suspended* stack holds may well be thread-bound (a body's locals
// need not be `Send`). Keeping it on its thread is the kernel's invariant,
// not these types': `Kernel::lock` admits only the thread the run started
// on, and `Kernel::drive` unwinds every suspended context before it
// returns. The kernel state that holds these values must stay `Send` for
// `Ctx` to keep its auto traits.

// SAFETY: an address into a stack mapping; moving it moves nothing else,
// and using it takes `switch`, whose contract the user answers for.
unsafe impl Send for SavedSp {}
// SAFETY: `base` is an anonymous mapping this value alone owns, and
// neither pooling nor unmapping it is tied to the thread that mapped it;
// `sp` as above.
unsafe impl Send for Coro {}

impl Coro {
    /// A context that, when first switched to, calls `entry(arg)` on a
    /// stack of its own (pooled if one is idle on this thread).
    pub(crate) fn new(entry: extern "C" fn(*const ()) -> !, arg: *const ()) -> Coro {
        let base = POOL
            .try_with(|pool| pool.borrow_mut().0.pop())
            .ok()
            .flatten()
            .unwrap_or_else(map_stack);
        // SAFETY: `base` is a live stack mapping owned by this call alone,
        // and nothing runs on it.
        let sp = unsafe { initial_frame(base, entry, arg) };
        Coro { base, sp }
    }

    /// Lowest usable address of the stack (the guard page ends here).
    pub(crate) fn floor(&self) -> usize {
        self.base as usize + GUARD_BYTES
    }

    /// Where to resume this context ([`switch`]'s `to`).
    pub(crate) fn saved(&self) -> SavedSp {
        self.sp
    }

    /// Where to save this context when it is suspended ([`switch`]'s
    /// `from`).
    pub(crate) fn save_slot(&mut self) -> *mut SavedSp {
        &mut self.sp
    }
}

impl Drop for Coro {
    /// Gives the stack back: to this thread's pool while it has room (and
    /// still exists — a drop during thread teardown finds it gone),
    /// otherwise to the OS. The owner guarantees nothing runs on the stack.
    fn drop(&mut self) {
        let base = self.base;
        let pooled = POOL
            .try_with(|pool| {
                let idle = &mut pool.borrow_mut().0;
                let room = idle.len() < POOL_CAP;
                if room {
                    idle.push(base);
                }
                room
            })
            .unwrap_or(false);
        if !pooled {
            unmap_stack(base);
        }
    }
}

/// Lays out the first frame of a fresh stack — what [`switch`] pops before
/// its `ret` — and returns the stack pointer to resume at. From the
/// returned pointer upward: `r15 r14 r13 r12 rbx rbp`, then the return
/// address. `r12` carries `arg` and `r13` `entry` into [`trampoline`];
/// `rbp` is zero so frame-pointer walks end here too. After the `ret` the
/// stack pointer is the (page-aligned) end of the mapping, so the
/// trampoline's `call` leaves `entry` the 16-byte alignment the ABI
/// promises every function.
///
/// # Safety
///
/// `base` must be a mapping from `map_stack` that the caller owns and that
/// no context is running on.
unsafe fn initial_frame(
    base: *mut u8,
    entry: extern "C" fn(*const ()) -> !,
    arg: *const (),
) -> SavedSp {
    let frame: [usize; 7] = [
        0,
        0,
        entry as usize,
        arg as usize,
        0,
        0,
        trampoline as *const () as usize,
    ];
    // SAFETY: the frame's 56 bytes end exactly at the end of the writable
    // part of the mapping, which the caller owns; `usize` alignment holds
    // because the end is page-aligned.
    unsafe {
        let sp = base
            .add(GUARD_BYTES + STACK_BYTES)
            .cast::<[usize; 7]>()
            .sub(1);
        sp.write(frame);
        SavedSp(sp.cast())
    }
}

/// First code to run on a fresh stack: calls `entry(arg)`, which must not
/// return. `.cfi_undefined rip` marks this as the outermost frame, so a
/// backtrace or an unwind that gets this far stops instead of reading a
/// return address that was never pushed.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

/// Suspends the running context and resumes another: pushes the six
/// callee-saved registers of the SysV ABI, stores the stack pointer in
/// `*from`, loads `to`, pops the six registers saved there and returns
/// into whatever that context was doing — the instruction after its own
/// `switch`, or [`trampoline`] on first entry. To the compiler this is an
/// ordinary call that clobbers the caller-saved registers and comes back
/// later.
///
/// The two contexts share an OS thread, so whatever the caller still holds
/// that the resumed context waits for (a `MutexGuard` above all) is never
/// released: a deadlock, though not a safety matter.
///
/// # Safety
///
/// * `from` is valid for one write, and stays valid until then (no lock
///   guards it: the write happens inside this call).
/// * `to` was produced by `initial_frame` or stored by an earlier `switch`
///   on a stack that is still mapped, and has not been resumed since —
///   resuming a context twice runs two flows of control on one stack.
/// * A context is resumed on the OS thread it was suspended on: its frames
///   may hold values that are not `Send`.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(from: *mut SavedSp, to: SavedSp) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}
