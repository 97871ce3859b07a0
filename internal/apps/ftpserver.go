package apps

// The FTP server stands in for CrossFTP 1.05–1.08 (paper Table 4): four
// releases, three updates, every one of which adds or deletes fields — so
// none is supportable by a method-body-only DSU system (the paper makes the
// same observation). The 1.07→1.08 update changes RequestHandler.run()
// itself; with active sessions that method is essentially always on stack,
// so the update only applies once the server is relatively idle — the
// paper's §4.4 story, which the update-matrix harness reproduces by first
// attempting the update under load (abort) and then after draining
// connections (applied).

// ftpMain is the accept loop, byte-identical in all four releases.
const ftpMain = `
class FtpServer {
  static method main()V {
    const 21
    invokestatic Net.listen(I)I
    store 0
  accept:
    load 0
    invokestatic Net.accept(I)I
    store 1
    new RequestHandler
    dup
    load 1
    invokespecial RequestHandler.<init>(I)V
    invokestatic Thread.spawn(LObject;)V
    goto accept
  }
}
`

func ftpBanner(ver string) string {
	return `
class Banner {
  static method id()LString; {
    ldc "CrossFTP/` + ver + `"
    return
  }
}
`
}

// --- RequestHandler variants ---------------------------------------------------

// ftpHandlerV1 (1.05–1.07): run() delegates every line to FtpCommands.
const ftpHandlerV1 = `
class RequestHandler {
  field conn I
  field user LString;
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield RequestHandler.conn I
    return
  }
  method setUser(LString;)V {
    load 0
    load 1
    putfield RequestHandler.user LString;
    return
  }
  method user()LString; {
    load 0
    getfield RequestHandler.user LString;
    return
  }
  method run()V {
  loop:
    load 0
    getfield RequestHandler.conn I
    invokestatic Net.recvLine(I)LString;
    store 1
    load 1
    ifnull closed
    load 0
    getfield RequestHandler.conn I
    load 1
    load 0
    invokestatic FtpCommands.exec(ILString;LRequestHandler;)Z
    ifne loop
  closed:
    load 0
    getfield RequestHandler.conn I
    invokestatic Net.close(I)V
    return
  }
}
`

// ftpHandlerV2 (1.08): per-session command accounting happens inside run()
// — the change that pins the update until sessions drain.
const ftpHandlerV2 = `
class RequestHandler {
  field conn I
  field user LString;
  field commands I
  field lastSeen I
  field aborted Z
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield RequestHandler.conn I
    return
  }
  method setUser(LString;)V {
    load 0
    load 1
    putfield RequestHandler.user LString;
    return
  }
  method user()LString; {
    load 0
    getfield RequestHandler.user LString;
    return
  }
  method run()V {
  loop:
    load 0
    getfield RequestHandler.conn I
    invokestatic Net.recvLine(I)LString;
    store 1
    load 1
    ifnull closed
    load 0
    load 0
    getfield RequestHandler.commands I
    const 1
    add
    putfield RequestHandler.commands I
    load 0
    invokestatic System.time()I
    putfield RequestHandler.lastSeen I
    load 0
    getfield RequestHandler.conn I
    load 1
    load 0
    invokestatic FtpCommands.exec(ILString;LRequestHandler;)Z
    ifne loop
  closed:
    load 0
    getfield RequestHandler.conn I
    invokestatic Net.close(I)V
    return
  }
}
`

// --- FileStore variants -----------------------------------------------------------

const ftpFilesV1 = `
class FileStore {
  static field names [LString;
  static field bodies [LString;
  static field count I
  static method <clinit>()V {
    const 16
    newarray LString;
    putstatic FileStore.names [LString;
    const 16
    newarray LString;
    putstatic FileStore.bodies [LString;
    ldc "readme.txt"
    ldc "welcome to crossftp"
    invokestatic FileStore.put(LString;LString;)V
    ldc "motd"
    ldc "have a nice day"
    invokestatic FileStore.put(LString;LString;)V
    return
  }
  static method put(LString;LString;)V {
    getstatic FileStore.names [LString;
    getstatic FileStore.count I
    load 0
    aset
    getstatic FileStore.bodies [LString;
    getstatic FileStore.count I
    load 1
    aset
    getstatic FileStore.count I
    const 1
    add
    putstatic FileStore.count I
    return
  }
  static method get(LString;)LString; {
    const 0
    store 1
  scan:
    load 1
    getstatic FileStore.count I
    if_icmpge missing
    getstatic FileStore.names [LString;
    load 1
    aget
    load 0
    invokevirtual String.equals(LString;)Z
    ifeq next
    getstatic FileStore.bodies [LString;
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
  static method listing()LString; {
    ldc ""
    store 0
    const 0
    store 1
  scan:
    load 1
    getstatic FileStore.count I
    if_icmpge out
    load 0
    getstatic FileStore.names [LString;
    load 1
    aget
    invokevirtual String.concat(LString;)LString;
    ldc " "
    invokevirtual String.concat(LString;)LString;
    store 0
    load 1
    const 1
    add
    store 1
    goto scan
  out:
    load 0
    return
  }
}
`

// ftpFilesV2 (1.07) tracks download counts per file (parallel field added).
const ftpFilesV2 = `
class FileStore {
  static field names [LString;
  static field bodies [LString;
  static field reads [I
  static field count I
  static method <clinit>()V {
    const 16
    newarray LString;
    putstatic FileStore.names [LString;
    const 16
    newarray LString;
    putstatic FileStore.bodies [LString;
    const 16
    newarray I
    putstatic FileStore.reads [I
    ldc "readme.txt"
    ldc "welcome to crossftp"
    invokestatic FileStore.put(LString;LString;)V
    ldc "motd"
    ldc "have a nice day"
    invokestatic FileStore.put(LString;LString;)V
    return
  }
  static method put(LString;LString;)V {
    getstatic FileStore.names [LString;
    getstatic FileStore.count I
    load 0
    aset
    getstatic FileStore.bodies [LString;
    getstatic FileStore.count I
    load 1
    aset
    getstatic FileStore.count I
    const 1
    add
    putstatic FileStore.count I
    return
  }
  static method get(LString;)LString; {
    const 0
    store 1
  scan:
    load 1
    getstatic FileStore.count I
    if_icmpge missing
    getstatic FileStore.names [LString;
    load 1
    aget
    load 0
    invokevirtual String.equals(LString;)Z
    ifeq next
    getstatic FileStore.reads [I
    load 1
    getstatic FileStore.reads [I
    load 1
    aget
    const 1
    add
    aset
    getstatic FileStore.bodies [LString;
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
  static method listing()LString; {
    ldc ""
    store 0
    const 0
    store 1
  scan:
    load 1
    getstatic FileStore.count I
    if_icmpge out
    load 0
    getstatic FileStore.names [LString;
    load 1
    aget
    invokevirtual String.concat(LString;)LString;
    ldc " "
    invokevirtual String.concat(LString;)LString;
    store 0
    load 1
    const 1
    add
    store 1
    goto scan
  out:
    load 0
    return
  }
}
`

// --- FtpAuth variants -----------------------------------------------------------------

const ftpAuthV1 = `
class FtpAuth {
  static method check(LString;LString;)Z {
    load 0
    ldc "admin"
    invokevirtual String.equals(LString;)Z
    ifeq no
    load 1
    ldc "crossftp"
    invokevirtual String.equals(LString;)Z
    return
  no:
    const 0
    return
  }
}
`

// ftpAuthV2 (1.06) counts failed logins (field added to FtpAuth).
const ftpAuthV2 = `
class FtpAuth {
  static field failures I
  static method check(LString;LString;)Z {
    load 0
    ldc "admin"
    invokevirtual String.equals(LString;)Z
    ifeq no
    load 1
    ldc "crossftp"
    invokevirtual String.equals(LString;)Z
    ifeq no
    const 1
    return
  no:
    getstatic FtpAuth.failures I
    const 1
    add
    putstatic FtpAuth.failures I
    const 0
    return
  }
}
`

// --- TransferLog (added in 1.06) -------------------------------------------------------

const ftpLog106 = `
class TransferLog {
  static field entries I
  static method note()V {
    getstatic TransferLog.entries I
    const 1
    add
    putstatic TransferLog.entries I
    return
  }
}
`

// --- FtpCommands variants -----------------------------------------------------------------

// ftpCommands builds the command dispatcher. logRetr injects the 1.06+
// TransferLog call into RETR.
func ftpCommands(logRetr bool) string {
	note := ""
	if logRetr {
		note = "    invokestatic TransferLog.note()V\n"
	}
	return `
class FtpCommands {
  static method exec(ILString;LRequestHandler;)Z {
    load 1
    ldc "USER "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_pass
    load 2
    load 1
    const 5
    load 1
    invokevirtual String.length()I
    invokevirtual String.substring(II)LString;
    invokevirtual RequestHandler.setUser(LString;)V
    load 0
    ldc "331 password required by "
    invokestatic Banner.id()LString;
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_pass:
    load 1
    ldc "PASS "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_list
    load 2
    invokevirtual RequestHandler.user()LString;
    ifnull nopass
    load 2
    invokevirtual RequestHandler.user()LString;
    load 1
    const 5
    load 1
    invokevirtual String.length()I
    invokevirtual String.substring(II)LString;
    invokestatic FtpAuth.check(LString;LString;)Z
    ifeq nopass
    load 0
    ldc "230 logged in"
    invokestatic Net.send(ILString;)V
    const 1
    return
  nopass:
    load 0
    ldc "530 login incorrect"
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_list:
    load 1
    ldc "LIST"
    invokevirtual String.equals(LString;)Z
    ifeq try_retr
    load 0
    ldc "150 "
    invokestatic FileStore.listing()LString;
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_retr:
    load 1
    ldc "RETR "
    invokevirtual String.startsWith(LString;)Z
    ifeq try_quit
    load 1
    const 5
    load 1
    invokevirtual String.length()I
    invokevirtual String.substring(II)LString;
    invokestatic FileStore.get(LString;)LString;
    store 3
    load 3
    ifnull nofile
` + note + `    load 0
    ldc "226 "
    load 3
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    const 1
    return
  nofile:
    load 0
    ldc "550 no such file"
    invokestatic Net.send(ILString;)V
    const 1
    return
  try_quit:
    load 1
    ldc "QUIT"
    invokevirtual String.equals(LString;)Z
    ifeq unknown
    load 0
    ldc "221 goodbye"
    invokestatic Net.send(ILString;)V
    const 0
    return
  unknown:
    load 0
    ldc "502 command not implemented"
    invokestatic Net.send(ILString;)V
    const 1
    return
  }
}
`
}

// FTPServer builds the CrossFTP stand-in with its four releases.
func FTPServer() *App {
	v := func(name, tag string) Version { return Version{Name: name, Tag: tag} }

	v105 := v("1.05", "105")
	v105.Source = ftpBanner("1.05") + ftpAuthV1 + ftpFilesV1 + ftpCommands(false) +
		ftpHandlerV1 + ftpMain

	// 1.06: TransferLog class added, FtpAuth gains a failure counter, RETR
	// starts logging.
	v106 := v("1.06", "106")
	v106.Source = ftpBanner("1.06") + ftpAuthV2 + ftpLog106 + ftpFilesV1 + ftpCommands(true) +
		ftpHandlerV1 + ftpMain

	// 1.07: FileStore gains per-file read counts.
	v107 := v("1.07", "107")
	v107.Source = ftpBanner("1.07") + ftpAuthV2 + ftpLog106 + ftpFilesV2 + ftpCommands(true) +
		ftpHandlerV1 + ftpMain
	// The update replaces FileStore without running the new <clinit>, so the
	// array it gains must come from the class transformer; the default one
	// only copies, and would leave reads null for RETR to trip over.
	v107.Transformers = `
class JvolveTransformers {
  static method jvolveClass(LFileStore;)V {
    getstatic v106_FileStore.names [LString;
    putstatic FileStore.names [LString;
    getstatic v106_FileStore.bodies [LString;
    putstatic FileStore.bodies [LString;
    getstatic v106_FileStore.count I
    putstatic FileStore.count I
    const 16
    newarray I
    putstatic FileStore.reads [I
    return
  }
}
`

	// 1.08: RequestHandler gains three fields and its run() changes — the
	// "only when relatively idle" update.
	v108 := v("1.08", "108")
	v108.Source = ftpBanner("1.08") + ftpAuthV2 + ftpLog106 + ftpFilesV2 + ftpCommands(true) +
		ftpHandlerV2 + ftpMain
	v108.NeedsQuiesce = true

	return &App{
		Name:         "ftpserver",
		Port:         21,
		MainClass:    "FtpServer",
		ProbeRequest: "USER admin",
		Workloads: []Workload{{Port: 21, Lines: []string{
			"USER admin", "PASS crossftp", "LIST", "RETR readme.txt", "QUIT",
		}}},
		Versions: []Version{v105, v106, v107, v108},
	}
}
