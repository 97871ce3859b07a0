package apps

// The email server stands in for JavaEmailServer 1.2.1–1.4 (paper Table 3):
// ten releases, nine updates. main() spawns an SMTP listener (port 25) and
// a POP3 listener (port 110); each accepted connection runs a session
// thread whose run() loop is byte-identical across releases — protocol
// changes live in the SmtpProtocol/Pop3Protocol static handlers, which are
// only transiently on stack.
//
// Two paper moments are reproduced exactly:
//
//   - 1.2.x → 1.3 reworks the configuration framework, changing the
//     listeners' accept loops — methods that never leave the stack — so
//     the update aborts (the paper's second failure).
//   - 1.3.1 → 1.3.2 is Figure 2/3: User.forwardAddresses changes type from
//     [LString; to [LEmailAddress; with a new EmailAddress class, a
//     changed setForwardedAddresses signature, and a custom object
//     transformer that splits the old strings at '@'.

// --- main + listeners ---------------------------------------------------------

// esMainV1: listeners with hard-wired ports (1.2.1–1.2.4).
const esMainV1 = `
class MailServer {
  static method main()V {
    new SmtpListener
    dup
    invokespecial SmtpListener.<init>()V
    invokestatic Thread.spawn(LObject;)V
    new Pop3Listener
    dup
    invokespecial Pop3Listener.<init>()V
    invokestatic Thread.spawn(LObject;)V
    return
  }
}
class SmtpListener {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    const 25
    invokestatic Net.listen(I)I
    store 1
  accept:
    load 1
    invokestatic Net.accept(I)I
    store 2
    new SmtpSession
    dup
    load 2
    invokespecial SmtpSession.<init>(I)V
    invokestatic Thread.spawn(LObject;)V
    goto accept
  }
}
class Pop3Listener {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    const 110
    invokestatic Net.listen(I)I
    store 1
  accept:
    load 1
    invokestatic Net.accept(I)I
    store 2
    new Pop3Session
    dup
    load 2
    invokespecial Pop3Session.<init>(I)V
    invokestatic Thread.spawn(LObject;)V
    goto accept
  }
}
`

// esMainV2 (1.3+): ports come from the new Config class — the accept loops'
// bytecode changes, which is exactly why the 1.3 update cannot be applied
// while they run.
const esMainV2 = `
class Config {
  static field smtpPort I
  static field popPort I
  static method <clinit>()V {
    const 25
    putstatic Config.smtpPort I
    const 110
    putstatic Config.popPort I
    return
  }
}
class MailServer {
  static method main()V {
    new SmtpListener
    dup
    invokespecial SmtpListener.<init>()V
    invokestatic Thread.spawn(LObject;)V
    new Pop3Listener
    dup
    invokespecial Pop3Listener.<init>()V
    invokestatic Thread.spawn(LObject;)V
    return
  }
}
class SmtpListener {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    getstatic Config.smtpPort I
    invokestatic Net.listen(I)I
    store 1
  accept:
    load 1
    invokestatic Net.accept(I)I
    store 2
    new SmtpSession
    dup
    load 2
    invokespecial SmtpSession.<init>(I)V
    invokestatic Thread.spawn(LObject;)V
    goto accept
  }
}
class Pop3Listener {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    getstatic Config.popPort I
    invokestatic Net.listen(I)I
    store 1
  accept:
    load 1
    invokestatic Net.accept(I)I
    store 2
    new Pop3Session
    dup
    load 2
    invokespecial Pop3Session.<init>(I)V
    invokestatic Thread.spawn(LObject;)V
    goto accept
  }
}
`

// --- sessions (byte-identical run loops in every release) ------------------------

const esSessions = `
class SmtpSession {
  field conn I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield SmtpSession.conn I
    return
  }
  method run()V {
  loop:
    load 0
    getfield SmtpSession.conn I
    invokestatic Net.recvLine(I)LString;
    store 1
    load 1
    ifnull closed
    load 0
    getfield SmtpSession.conn I
    load 1
    invokestatic SmtpProtocol.handle(ILString;)Z
    ifne loop
  closed:
    load 0
    getfield SmtpSession.conn I
    invokestatic Net.close(I)V
    return
  }
}
class Pop3Session {
  field conn I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Pop3Session.conn I
    return
  }
  method run()V {
  loop:
    load 0
    getfield Pop3Session.conn I
    invokestatic Net.recvLine(I)LString;
    store 1
    load 1
    ifnull closed
    load 0
    getfield Pop3Session.conn I
    load 1
    invokestatic Pop3Protocol.handle(ILString;)Z
    ifne loop
  closed:
    load 0
    getfield Pop3Session.conn I
    invokestatic Net.close(I)V
    return
  }
}
`

// --- Greeting (version banner) ----------------------------------------------------

func esGreeting(ver string) string {
	return `
class Greeting {
  static method banner()LString; {
    ldc "JavaEmailServer/` + ver + `"
    return
  }
}
`
}

// --- User variants -------------------------------------------------------------------

// esUser121: the paper's Figure 2(a) shape — forwards are plain strings.
const esUser121 = `
class User {
  field username LString;
  field domain LString;
  field password LString;
  field forwardAddresses [LString;
  method <init>(LString;LString;LString;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield User.username LString;
    load 0
    load 2
    putfield User.domain LString;
    load 0
    load 3
    putfield User.password LString;
    return
  }
  method name()LString; {
    load 0
    getfield User.username LString;
    return
  }
  method getForwardedAddresses()[LString; {
    load 0
    getfield User.forwardAddresses [LString;
    return
  }
  method setForwardedAddresses([LString;)V {
    load 0
    load 1
    putfield User.forwardAddresses [LString;
    return
  }
  method describeForwards()LString; {
    load 0
    getfield User.forwardAddresses [LString;
    store 1
    load 1
    ifnull none
    ldc ""
    store 2
    const 0
    store 3
  each:
    load 3
    load 1
    arraylen
    if_icmpge out
    load 2
    load 1
    load 3
    aget
    invokevirtual String.concat(LString;)LString;
    ldc ";"
    invokevirtual String.concat(LString;)LString;
    store 2
    load 3
    const 1
    add
    store 3
    goto each
  out:
    load 2
    return
  none:
    ldc "(none)"
    return
  }
}
`

// esUser123 adds a lastLogin timestamp (field addition).
const esUser123 = `
class User {
  field username LString;
  field domain LString;
  field password LString;
  field forwardAddresses [LString;
  field lastLogin I
  method <init>(LString;LString;LString;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield User.username LString;
    load 0
    load 2
    putfield User.domain LString;
    load 0
    load 3
    putfield User.password LString;
    return
  }
  method name()LString; {
    load 0
    getfield User.username LString;
    return
  }
  method touch()V {
    load 0
    invokestatic System.time()I
    putfield User.lastLogin I
    return
  }
  method getForwardedAddresses()[LString; {
    load 0
    getfield User.forwardAddresses [LString;
    return
  }
  method setForwardedAddresses([LString;)V {
    load 0
    load 1
    putfield User.forwardAddresses [LString;
    return
  }
  method describeForwards()LString; {
    load 0
    getfield User.forwardAddresses [LString;
    store 1
    load 1
    ifnull none
    ldc ""
    store 2
    const 0
    store 3
  each:
    load 3
    load 1
    arraylen
    if_icmpge out
    load 2
    load 1
    load 3
    aget
    invokevirtual String.concat(LString;)LString;
    ldc ";"
    invokevirtual String.concat(LString;)LString;
    store 2
    load 3
    const 1
    add
    store 3
    goto each
  out:
    load 2
    return
  none:
    ldc "(none)"
    return
  }
}
`

// esUser132: Figure 2(b) — forwards become EmailAddress objects; the setter
// and getter change signature.
const esUser132 = `
class EmailAddress {
  field local LString;
  field domain LString;
  method <init>(LString;LString;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield EmailAddress.local LString;
    load 0
    load 2
    putfield EmailAddress.domain LString;
    return
  }
  method format()LString; {
    load 0
    getfield EmailAddress.local LString;
    ldc "@"
    invokevirtual String.concat(LString;)LString;
    load 0
    getfield EmailAddress.domain LString;
    invokevirtual String.concat(LString;)LString;
    return
  }
}
class User {
  field username LString;
  field domain LString;
  field password LString;
  field forwardAddresses [LEmailAddress;
  field lastLogin I
  method <init>(LString;LString;LString;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield User.username LString;
    load 0
    load 2
    putfield User.domain LString;
    load 0
    load 3
    putfield User.password LString;
    return
  }
  method name()LString; {
    load 0
    getfield User.username LString;
    return
  }
  method touch()V {
    load 0
    invokestatic System.time()I
    putfield User.lastLogin I
    return
  }
  method getForwardedAddresses()[LEmailAddress; {
    load 0
    getfield User.forwardAddresses [LEmailAddress;
    return
  }
  method setForwardedAddresses([LEmailAddress;)V {
    load 0
    load 1
    putfield User.forwardAddresses [LEmailAddress;
    return
  }
  method describeForwards()LString; {
    load 0
    getfield User.forwardAddresses [LEmailAddress;
    store 1
    load 1
    ifnull none
    ldc ""
    store 2
    const 0
    store 3
  each:
    load 3
    load 1
    arraylen
    if_icmpge out
    load 2
    load 1
    load 3
    aget
    invokevirtual EmailAddress.format()LString;
    invokevirtual String.concat(LString;)LString;
    ldc ";"
    invokevirtual String.concat(LString;)LString;
    store 2
    load 3
    const 1
    add
    store 3
    goto each
  out:
    load 2
    return
  none:
    ldc "(none)"
    return
  }
}
`

// esUser14 adds an auto-reply flag on top of 1.3.2's shape.
var esUser14 = esUser132 + `
class UserPrefs {
  static field autoReplyDefault Z
}
`

// --- UserStore -------------------------------------------------------------------------

// esUserStoreV1 seeds two accounts with string forwards (1.2.1–1.3.1).
const esUserStoreV1 = `
class UserStore {
  static field users [LUser;
  static field count I
  static method <clinit>()V {
    const 8
    newarray LUser;
    putstatic UserStore.users [LUser;
    new User
    dup
    ldc "alice"
    ldc "example.com"
    ldc "secret"
    invokespecial User.<init>(LString;LString;LString;)V
    store 0
    const 2
    newarray LString;
    store 1
    load 1
    const 0
    ldc "alice@backup.example.com"
    aset
    load 1
    const 1
    ldc "alice@phone.example.com"
    aset
    load 0
    load 1
    invokevirtual User.setForwardedAddresses([LString;)V
    load 0
    invokestatic UserStore.add(LUser;)V
    new User
    dup
    ldc "bob"
    ldc "example.com"
    ldc "hunter2"
    invokespecial User.<init>(LString;LString;LString;)V
    invokestatic UserStore.add(LUser;)V
    return
  }
  static method add(LUser;)V {
    getstatic UserStore.users [LUser;
    getstatic UserStore.count I
    load 0
    aset
    getstatic UserStore.count I
    const 1
    add
    putstatic UserStore.count I
    return
  }
  static method find(LString;)LUser; {
    const 0
    store 1
  scan:
    load 1
    getstatic UserStore.count I
    if_icmpge missing
    getstatic UserStore.users [LUser;
    load 1
    aget
    invokevirtual User.name()LString;
    load 0
    invokevirtual String.equals(LString;)Z
    ifeq next
    getstatic UserStore.users [LUser;
    load 1
    aget
    return
  next:
    load 1
    const 1
    add
    store 1
    goto scan
  missing:
    null
    return
  }
}
`

// esUserStoreV2 (1.3.2+) seeds EmailAddress forwards.
const esUserStoreV2 = `
class UserStore {
  static field users [LUser;
  static field count I
  static method <clinit>()V {
    const 8
    newarray LUser;
    putstatic UserStore.users [LUser;
    new User
    dup
    ldc "alice"
    ldc "example.com"
    ldc "secret"
    invokespecial User.<init>(LString;LString;LString;)V
    store 0
    const 2
    newarray LEmailAddress;
    store 1
    load 1
    const 0
    new EmailAddress
    dup
    ldc "alice"
    ldc "backup.example.com"
    invokespecial EmailAddress.<init>(LString;LString;)V
    aset
    load 1
    const 1
    new EmailAddress
    dup
    ldc "alice"
    ldc "phone.example.com"
    invokespecial EmailAddress.<init>(LString;LString;)V
    aset
    load 0
    load 1
    invokevirtual User.setForwardedAddresses([LEmailAddress;)V
    load 0
    invokestatic UserStore.add(LUser;)V
    new User
    dup
    ldc "bob"
    ldc "example.com"
    ldc "hunter2"
    invokespecial User.<init>(LString;LString;LString;)V
    invokestatic UserStore.add(LUser;)V
    return
  }
  static method add(LUser;)V {
    getstatic UserStore.users [LUser;
    getstatic UserStore.count I
    load 0
    aset
    getstatic UserStore.count I
    const 1
    add
    putstatic UserStore.count I
    return
  }
  static method find(LString;)LUser; {
    const 0
    store 1
  scan:
    load 1
    getstatic UserStore.count I
    if_icmpge missing
    getstatic UserStore.users [LUser;
    load 1
    aget
    invokevirtual User.name()LString;
    load 0
    invokevirtual String.equals(LString;)Z
    ifeq next
    getstatic UserStore.users [LUser;
    load 1
    aget
    return
  next:
    load 1
    const 1
    add
    store 1
    goto scan
  missing:
    null
    return
  }
}
`

// --- MailStore ----------------------------------------------------------------------------

const esMailStoreV1 = `
class MailStore {
  static field inbox [LString;
  static field count I
  static method <clinit>()V {
    const 64
    newarray LString;
    putstatic MailStore.inbox [LString;
    return
  }
  static method deliver(LString;)V {
    getstatic MailStore.count I
    const 64
    if_icmpge full
    getstatic MailStore.inbox [LString;
    getstatic MailStore.count I
    load 0
    aset
    getstatic MailStore.count I
    const 1
    add
    putstatic MailStore.count I
  full:
    return
  }
  static method size()I {
    getstatic MailStore.count I
    return
  }
  static method get(I)LString; {
    load 0
    getstatic MailStore.count I
    if_icmpge bad
    load 0
    iflt bad
    getstatic MailStore.inbox [LString;
    load 0
    aget
    return
  bad:
    null
    return
  }
}
`

// esMailStoreV2 (1.3.4) adds a dropped-mail counter (field addition).
const esMailStoreV2 = `
class MailStore {
  static field inbox [LString;
  static field count I
  static field dropped I
  static method <clinit>()V {
    const 64
    newarray LString;
    putstatic MailStore.inbox [LString;
    return
  }
  static method deliver(LString;)V {
    getstatic MailStore.count I
    const 64
    if_icmpge full
    getstatic MailStore.inbox [LString;
    getstatic MailStore.count I
    load 0
    aset
    getstatic MailStore.count I
    const 1
    add
    putstatic MailStore.count I
    return
  full:
    getstatic MailStore.dropped I
    const 1
    add
    putstatic MailStore.dropped I
    return
  }
  static method size()I {
    getstatic MailStore.count I
    return
  }
  static method get(I)LString; {
    load 0
    getstatic MailStore.count I
    if_icmpge bad
    load 0
    iflt bad
    getstatic MailStore.inbox [LString;
    load 0
    aget
    return
  bad:
    null
    return
  }
}
`

// --- Protocol handlers -------------------------------------------------------------------

// esSmtp builds the SMTP handler; greet is the HELO reply prefix and
// deliveredMsg the DATA acknowledgement (both evolve across releases).
func esSmtp(greet, deliveredMsg string) string {
	return `
class SmtpProtocol {
  static method handle(ILString;)Z {
    load 1
    ldc "HELO "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_mail
    load 0
    ldc "` + greet + ` "
    invokestatic Greeting.banner()LString;
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_mail:
    load 1
    ldc "DATA "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_quit
    load 1
    const 5
    load 1
    invokevirtual String.length()I
    invokevirtual String.substring(II)LString;
    invokestatic MailStore.deliver(LString;)V
    load 0
    ldc "` + deliveredMsg + `"
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_quit:
    load 1
    ldc "QUIT"
    invokevirtual String.equals(LString;)Z
    ifeq unknown
    load 0
    ldc "221 bye"
    invokestatic Net.send(ILString;)V
    const 0
    return
  unknown:
    load 0
    ldc "500 unrecognized"
    invokestatic Net.send(ILString;)V
    const 1
    return
  }
}
`
}

// esPop builds the POP3 handler; okPrefix evolves, and the FWD command
// surfaces the User.describeForwards behaviour (observing the 1.3.2 type
// change end to end).
func esPop(okPrefix string) string {
	return `
class Pop3Protocol {
  static method handle(ILString;)Z {
    load 1
    ldc "USER "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_stat
    load 1
    const 5
    load 1
    invokevirtual String.length()I
    invokevirtual String.substring(II)LString;
    invokestatic UserStore.find(LString;)LUser;
    ifnull nouser
    load 0
    ldc "` + okPrefix + ` "
    invokestatic Greeting.banner()LString;
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  nouser:
    load 0
    ldc "-ERR no such user"
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_stat:
    load 1
    ldc "STAT"
    invokevirtual String.equals(LString;)Z
    ifeq try_retr
    load 0
    ldc "` + okPrefix + ` "
    invokestatic MailStore.size()I
    invokestatic String.fromInt(I)LString;
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_retr:
    load 1
    ldc "RETR "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_fwd
    load 1
    const 5
    load 1
    invokevirtual String.length()I
    invokevirtual String.substring(II)LString;
    invokevirtual String.toInt()I
    invokestatic MailStore.get(I)LString;
    store 2
    load 2
    ifnull nomsg
    load 0
    ldc "` + okPrefix + ` "
    load 2
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  nomsg:
    load 0
    ldc "-ERR no such message"
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_fwd:
    load 1
    ldc "FWD "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_quit
    load 1
    const 4
    load 1
    invokevirtual String.length()I
    invokevirtual String.substring(II)LString;
    invokestatic UserStore.find(LString;)LUser;
    store 2
    load 2
    ifnull nouser2
    load 0
    ldc "` + okPrefix + ` "
    load 2
    invokevirtual User.describeForwards()LString;
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  nouser2:
    load 0
    ldc "-ERR no such user"
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_quit:
    load 1
    ldc "QUIT"
    invokevirtual String.equals(LString;)Z
    ifeq unknown
    load 0
    ldc "+OK bye"
    invokestatic Net.send(ILString;)V
    const 0
    return
  unknown:
    load 0
    ldc "-ERR unrecognized"
    invokestatic Net.send(ILString;)V
    const 1
    return
  }
}
`
}

// EmailServer builds the JavaEmailServer stand-in with its ten releases.
func EmailServer() *App {
	v := func(name, tag string) Version { return Version{Name: name, Tag: tag} }

	v121 := v("1.2.1", "121")
	v121.Source = esGreeting("1.2.1") + esUser121 + esUserStoreV1 + esMailStoreV1 +
		esSmtp("250 hello from", "250 delivered") + esPop("+OK") + esSessions + esMainV1

	// 1.2.2: protocol wording fixes only — supportable by method-body-only
	// DSU systems.
	v122 := v("1.2.2", "122")
	v122.Source = esGreeting("1.2.2") + esUser121 + esUserStoreV1 + esMailStoreV1 +
		esSmtp("250 greetings from", "250 message accepted") + esPop("+OK") + esSessions + esMainV1
	v122.BodyOnly = true

	// 1.2.3: User gains lastLogin (field addition) and POP touches it.
	v123 := v("1.2.3", "123")
	v123.Source = esGreeting("1.2.3") + esUser123 + esUserStoreV1 + esMailStoreV1 +
		esSmtp("250 greetings from", "250 message accepted") + esPop("+OK") + esSessions + esMainV1

	// 1.2.4: body-only fix in the SMTP acknowledgement.
	v124 := v("1.2.4", "124")
	v124.Source = esGreeting("1.2.4") + esUser123 + esUserStoreV1 + esMailStoreV1 +
		esSmtp("250 greetings from", "250 queued for delivery") + esPop("+OK") + esSessions + esMainV1
	v124.BodyOnly = true

	// 1.3: the configuration rework — the listeners' accept loops change,
	// and they are always on stack: the update aborts (paper §4.3).
	v13 := v("1.3", "13")
	v13.Source = esGreeting("1.3") + esUser123 + esUserStoreV1 + esMailStoreV1 +
		esSmtp("250 greetings from", "250 queued for delivery") + esPop("+OK") + esSessions + esMainV2
	v13.ExpectAbort = true

	// 1.3.1: body-only POP prefix fix.
	v131 := v("1.3.1", "131")
	v131.Source = esGreeting("1.3.1") + esUser123 + esUserStoreV1 + esMailStoreV1 +
		esSmtp("250 greetings from", "250 queued for delivery") + esPop("+OK ready") + esSessions + esMainV2
	v131.BodyOnly = true

	// 1.3.2: the paper's Figure 2/3 update. Sessions reference User only
	// indirectly (through the protocol handlers), but the always-running
	// listener loops reference Config/SmtpSession — unchanged bytecode
	// over updated metadata — so OSR carries them across.
	v132 := v("1.3.2", "132")
	v132.Source = esGreeting("1.3.2") + esUser132 + esUserStoreV2 + esMailStoreV1 +
		esSmtp("250 greetings from", "250 queued for delivery") + esPop("+OK ready") + esSessions + esMainV2
	v132.Transformers = `
class JvolveTransformers {
  static method jvolveObject(LUser;Lv131_User;)V {
    load 0
    load 1
    getfield v131_User.username LString;
    putfield User.username LString;
    load 0
    load 1
    getfield v131_User.domain LString;
    putfield User.domain LString;
    load 0
    load 1
    getfield v131_User.password LString;
    putfield User.password LString;
    load 0
    load 1
    getfield v131_User.lastLogin I
    putfield User.lastLogin I
    load 1
    getfield v131_User.forwardAddresses [LString;
    ifnull done
    load 1
    getfield v131_User.forwardAddresses [LString;
    arraylen
    newarray LEmailAddress;
    store 2
    const 0
    store 3
  each:
    load 3
    load 1
    getfield v131_User.forwardAddresses [LString;
    arraylen
    if_icmpge fill
    load 1
    getfield v131_User.forwardAddresses [LString;
    load 3
    aget
    const 64
    invokevirtual String.split(C)[LString;
    store 4
    load 2
    load 3
    new EmailAddress
    dup
    load 4
    const 0
    aget
    load 4
    const 1
    aget
    invokespecial EmailAddress.<init>(LString;LString;)V
    aset
    load 3
    const 1
    add
    store 3
    goto each
  fill:
    load 0
    load 2
    putfield User.forwardAddresses [LEmailAddress;
  done:
    return
  }
}
`

	// 1.3.3: body-only delivery acknowledgement fix.
	v133 := v("1.3.3", "133")
	v133.Source = esGreeting("1.3.3") + esUser132 + esUserStoreV2 + esMailStoreV1 +
		esSmtp("250 greetings from", "250 accepted for delivery") + esPop("+OK ready") + esSessions + esMainV2
	v133.BodyOnly = true

	// 1.3.4: MailStore gains a dropped-mail counter (field addition).
	v134 := v("1.3.4", "134")
	v134.Source = esGreeting("1.3.4") + esUser132 + esUserStoreV2 + esMailStoreV2 +
		esSmtp("250 greetings from", "250 accepted for delivery") + esPop("+OK ready") + esSessions + esMainV2

	// 1.4: a UserPrefs class appears and the SMTP wording changes.
	v14 := v("1.4", "14")
	v14.Source = esGreeting("1.4") + esUser14 + esUserStoreV2 + esMailStoreV2 +
		esSmtp("250 welcome to", "250 accepted for delivery") + esPop("+OK ready") + esSessions + esMainV2

	return &App{
		Name:         "emailserver",
		Port:         25,
		MainClass:    "MailServer",
		ProbeRequest: "HELO probe",
		Workloads: []Workload{
			{Port: 25, Lines: []string{"HELO client", "DATA hello world", "QUIT"}},
			{Port: 110, Lines: []string{"USER alice", "STAT", "RETR 0", "FWD alice", "QUIT"}, Counters: []string{"STAT"}},
		},
		Versions: []Version{
			v121, v122, v123, v124, v13, v131, v132, v133, v134, v14,
		},
	}
}
